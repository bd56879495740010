//! The arena demo/gate binary (DESIGN.md §14).
//!
//! Runs the strategy-comparison sweep at thread budgets {1, 4, 1024},
//! requires the league-table JSONL and the arena event trace to be
//! byte-identical across all three, writes `results/arena_league.json`,
//! and prints the human league table. `ARENA_QUICK=1` selects the reduced
//! CI sweep. Exits non-zero on any divergence.

use std::process::ExitCode;

use ftt_arena::{run, ArenaConfig, ArenaReport};

/// Thread budgets the gate compares; 1024 clamps to the par cap (MAX).
const BUDGETS: [usize; 3] = [1, 4, 1024];

fn main() -> ExitCode {
    let quick = std::env::var("ARENA_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false);
    let config = if quick {
        ArenaConfig::quick()
    } else {
        ArenaConfig::reference()
    };
    println!(
        "arena: {} strategies x {} densities x {} iterations ({})",
        config.strategies.len(),
        config.densities.len(),
        config.iterations,
        if quick { "quick" } else { "reference" },
    );

    let mut reference: Option<(ArenaReport, String)> = None;
    for budget in BUDGETS {
        par::set_thread_count(budget);
        let report = match run(&config) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("arena: run failed at budget {budget}: {e}");
                par::set_thread_count(0);
                return ExitCode::FAILURE;
            }
        };
        let jsonl = report.to_jsonl();
        match &reference {
            None => {
                println!("  budget {budget:>4}: {} league rows", report.rows.len());
                reference = Some((report, jsonl));
            }
            Some((ref_report, ref_jsonl)) => {
                if jsonl != *ref_jsonl {
                    eprintln!("arena: league table diverged at thread budget {budget}");
                    par::set_thread_count(0);
                    return ExitCode::FAILURE;
                }
                if report.trace != ref_report.trace {
                    eprintln!("arena: event trace diverged at thread budget {budget}");
                    par::set_thread_count(0);
                    return ExitCode::FAILURE;
                }
                println!("  budget {budget:>4}: byte-identical");
            }
        }
    }
    par::set_thread_count(0);

    let Some((report, jsonl)) = reference else {
        eprintln!("arena: no runs executed");
        return ExitCode::FAILURE;
    };
    if let Err(e) = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write("results/arena_league.json", &jsonl))
    {
        eprintln!("arena: could not write results/arena_league.json: {e}");
        return ExitCode::FAILURE;
    }
    println!("\n{}", report.table());
    println!(
        "league table: results/arena_league.json ({} rows)",
        report.rows.len()
    );
    ExitCode::SUCCESS
}
