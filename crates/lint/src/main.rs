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
    -h, --help       this help

CHECKS (per-file):
    F1 float-soundness         O1 obs-naming         W1 workspace-consistency
CHECKS (semantic, cross-crate):
    C1 par-capture-determinism O2 obs-schema         E2 cycle-accounting

Stale suppressions (unused allow / exclude entries) are reported as
warnings; warnings never affect the exit code. The panic, unsafe, cast
and determinism policies are clippy gates (`just clippy`,
`just clippy-unwrap`, clippy.toml).

EXIT CODES:
    0 clean    1 findings    2 usage/config/IO error
";
