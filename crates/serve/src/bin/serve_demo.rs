//! Seeded multi-tenant serve demo.
//!
//! Runs the reference scenario (two chip nodes; two training tenants,
//! one of which exhausts its spare pool and migrates; one inference
//! tenant with a burst and a lull) and exits non-zero on a missing
//! acceptance event (shed, lull campaign, migration).
//!
//! Usage: `serve_demo [seed]` (default seed 42). Writes the trace to
//! `results/serve_trace.jsonl` and the scrape body to
//! `results/serve_metrics.prom`, then prints a short summary.

use std::fs;
use std::process::ExitCode;

use ftt_serve::scenario::{run_reference_scenario, ScenarioReport};

fn check(report: &ScenarioReport) -> Result<(), String> {
    if report.sheds == 0 {
        return Err("expected >= 1 shed/backpressure event".into());
    }
    if report.lull_campaigns == 0 {
        return Err("expected >= 1 lull-scheduled detection campaign".into());
    }
    if report.migrations == 0 {
        return Err("expected >= 1 snapshot-backed tenant migration".into());
    }
    Ok(())
}

fn main() -> ExitCode {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(42);

    let reference = match run_reference_scenario(seed) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serve_demo: scenario failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check(&reference) {
        eprintln!("serve_demo: {e}");
        return ExitCode::FAILURE;
    }

    if let Err(e) = fs::create_dir_all("results")
        .and_then(|()| fs::write("results/serve_trace.jsonl", &reference.trace))
        .and_then(|()| fs::write("results/serve_metrics.prom", &reference.prometheus))
    {
        eprintln!("serve_demo: writing results/: {e}");
        return ExitCode::FAILURE;
    }

    println!("serve_demo seed={seed}");
    println!(
        "  ticks={} sheds={} lull_campaigns={} migrations={}",
        reference.ticks, reference.sheds, reference.lull_campaigns, reference.migrations
    );
    println!(
        "  inference output fp {:#018x}",
        reference.output_fingerprint
    );
    for (tenant, fp) in &reference.param_fingerprints {
        println!("  {tenant} params fp {fp:#018x}");
    }
    println!(
        "  trace: results/serve_trace.jsonl ({} lines)",
        reference.trace.lines().count()
    );
    println!(
        "  scrape: results/serve_metrics.prom ({} series lines)",
        reference
            .prometheus
            .lines()
            .filter(|l| !l.starts_with('#'))
            .count()
    );
    ExitCode::SUCCESS
}
