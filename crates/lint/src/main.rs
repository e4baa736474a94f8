//! CLI for the workspace lint pass.
//!
//! ```text
//! ulc-lint [--root=PATH] [--json=PATH] [--baseline=PATH | --write-baseline=PATH]
//! ulc-lint --explain=RULE
//! ulc-lint --version | --help
//! ```
//!
//! Prints one `path:line: [rule] message` line per finding and exits 1
//! if anything is flagged (with `--baseline`, only if anything *new* is
//! flagged). `--json=PATH` also writes the findings — fingerprints
//! included — as a JSON array (always written, `[]` when clean) for CI
//! consumption.

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: ulc-lint [OPTIONS]

A self-contained static-analysis pass over the ULC workspace for the
checks rustc and clippy do not give: interprocedural zero-alloc
reachability over the workspace call graph, plane-message
exhaustiveness and a live allowlist (DESIGN.md \u{a7}5g).

options:
  --root=PATH            workspace root to lint (default: .)
  --json=PATH            also write the findings as a JSON array
  --baseline=PATH        diff gate: exit 1 only on findings whose
                         fingerprint is not listed in PATH
  --write-baseline=PATH  record the current findings as the new baseline
                         and exit 0
  --explain=RULE         print what RULE checks and why, then exit
  --version              print the version and exit
  -h, --help             print this help and exit

exit codes: 0 clean (or no new findings under --baseline), 1 findings,
2 usage or I/O error.";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    let mut baseline_in: Option<PathBuf> = None;
    let mut baseline_out: Option<PathBuf> = None;
    for arg in std::env::args().skip(1) {
        if let Some(p) = arg.strip_prefix("--root=") {
            root = PathBuf::from(p);
        } else if let Some(p) = arg.strip_prefix("--json=") {
            json_out = Some(PathBuf::from(p));
        } else if let Some(p) = arg.strip_prefix("--baseline=") {
            baseline_in = Some(PathBuf::from(p));
        } else if let Some(p) = arg.strip_prefix("--write-baseline=") {
            baseline_out = Some(PathBuf::from(p));
        } else if let Some(rule) = arg.strip_prefix("--explain=") {
            return match ulc_lint::rules::explain(rule) {
                Some(text) => {
                    println!("{rule}: {text}");
                    ExitCode::SUCCESS
                }
                None => {
                    eprintln!(
                        "ulc-lint: unknown rule `{rule}`; known rules: {}",
                        ulc_lint::rules::ALL_RULES.join(", ")
                    );
                    ExitCode::from(2)
                }
            };
        } else if arg == "--version" {
            println!("ulc-lint {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        } else if arg == "--help" || arg == "-h" {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        } else {
            eprintln!("ulc-lint: unknown argument `{arg}`");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    }
    if baseline_in.is_some() && baseline_out.is_some() {
        eprintln!("ulc-lint: --baseline and --write-baseline are mutually exclusive");
        return ExitCode::from(2);
    }

    let diags = match ulc_lint::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!(
                "ulc-lint: failed to read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };

    if let Some(path) = json_out {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("ulc-lint: cannot create {}: {e}", dir.display());
                    return ExitCode::from(2);
                }
            }
        }
        let json = match serde_json::to_string_pretty(&diags) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("ulc-lint: JSON encoding failed: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("ulc-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if let Some(path) = baseline_out {
        if let Err(e) = ulc_lint::baseline::write_baseline(&path, &diags) {
            eprintln!("ulc-lint: cannot write baseline {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "ulc-lint: baseline recorded ({} finding(s)) to {}",
            diags.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    if let Some(path) = baseline_in {
        let known = match ulc_lint::baseline::read_baseline(&path) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("ulc-lint: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let fresh = ulc_lint::baseline::new_findings(&diags, &known);
        for d in &diags {
            let marker = if known.contains(&d.fingerprint) {
                "known"
            } else {
                "NEW"
            };
            println!("{d} [{marker}]");
        }
        return if fresh.is_empty() {
            eprintln!(
                "ulc-lint: no new findings ({} known baseline finding(s))",
                diags.len()
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "ulc-lint: {} NEW finding(s) not in baseline {}",
                fresh.len(),
                path.display()
            );
            ExitCode::FAILURE
        };
    }

    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        eprintln!("ulc-lint: workspace clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("ulc-lint: {} diagnostic(s)", diags.len());
        ExitCode::FAILURE
    }
}
