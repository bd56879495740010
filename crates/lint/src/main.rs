//! `ftt-lint` CLI: run the workspace static-analysis gate.
//!
//! ```text
//! cargo run -p ftt-lint [-- [--json] [--root DIR] [--config FILE]]
//! ```
//!
//! Exit codes: `0` clean, `1` findings, `2` usage/config/I-O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut config: Option<PathBuf> = None;
    let mut baseline: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => match args.next() {
                Some(v) => root = Some(PathBuf::from(v)),
                None => return usage("--root requires a directory argument"),
            },
            "--config" => match args.next() {
                Some(v) => config = Some(PathBuf::from(v)),
                None => return usage("--config requires a file argument"),
            },
            "--baseline" => match args.next() {
                Some(v) => baseline = Some(PathBuf::from(v)),
                None => return usage("--baseline requires a file argument"),
            },
            "--help" | "-h" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("ftt-lint: cannot determine working directory: {e}");
                    return ExitCode::from(2);
                }
            };
            match ftt_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "ftt-lint: no [workspace] Cargo.toml found above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };

    match ftt_lint::run(&root, config.as_deref()) {
        Ok(report) => {
            if let Some(base_path) = baseline {
                return diff_against_baseline(&report, &base_path, json);
            }
            if json {
                print!("{}", report.to_json());
            } else {
                print!("{}", report.to_human());
            }
            if report.is_clean() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// `--baseline` mode: only findings *not* in the recorded baseline fail
/// the gate; recorded debt is tolerated (and counted).
fn diff_against_baseline(
    report: &ftt_lint::diag::Report,
    base_path: &std::path::Path,
    json: bool,
) -> ExitCode {
    let text = match std::fs::read_to_string(base_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ftt-lint: cannot read baseline {}: {e}", base_path.display());
            return ExitCode::from(2);
        }
    };
    let base = match ftt_lint::baseline::Baseline::parse(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("ftt-lint: bad baseline {}: {e}", base_path.display());
            return ExitCode::from(2);
        }
    };
    let (fresh, suppressed) = base.diff(report);
    if json {
        // In baseline mode the JSON report carries only the *new*
        // findings (same grammar as a plain report).
        let owned: Vec<ftt_lint::diag::Finding> = fresh.iter().map(|f| (*f).clone()).collect();
        let sub = ftt_lint::diag::Report::with_warnings(
            owned,
            report.warnings.clone(),
            report.files_scanned,
            report.checks.clone(),
        );
        print!("{}", sub.to_json());
    } else {
        for f in &fresh {
            if f.file.is_empty() {
                println!("{} workspace: {}", f.check, f.message);
            } else if f.line == 0 {
                println!("{} {}: {}", f.check, f.file, f.message);
            } else {
                println!("{} {}:{}: {}", f.check, f.file, f.line, f.message);
            }
        }
        println!(
            "ftt-lint: {} new finding(s), {} suppressed by baseline {}",
            fresh.len(),
            suppressed,
            base_path.display()
        );
    }
    if fresh.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!("ftt-lint: {problem}\n\n{HELP}");
    ExitCode::from(2)
}

const HELP: &str = "\
ftt-lint — workspace static-analysis gate (DESIGN.md §10)

USAGE:
    cargo run -p ftt-lint [-- OPTIONS]

OPTIONS:
    --json           emit the deterministic JSON report instead of human
                     diagnostics
    --root DIR       workspace root (default: nearest [workspace] above cwd)
    --config FILE    lint.toml path (default: <root>/lint.toml)
    --baseline FILE  diff against a recorded --json report: exit non-zero
                     only on findings not present in the baseline
    -h, --help       this help

CHECKS (per-file):
    D1 determinism             F1 float-soundness    O1 obs-naming
    W1 workspace-consistency
CHECKS (semantic, cross-crate):
    C1 par-capture-determinism O2 obs-schema         R1 resume-panic-freedom
    E2 cycle-accounting

Stale suppressions (unused allow / exclude entries) are reported as
warnings; warnings never affect the exit code. The panic, unsafe and
cast policies are clippy gates (`just clippy`, `just clippy-unwrap`).

EXIT CODES:
    0 clean    1 findings    2 usage/config/IO error
";
