//! **Trace replay** — rebuilds metric timelines from an obs JSONL trace.
//!
//! The event stream is the durable record of a run (the snapshot carries
//! the *state*, the trace carries the *history*). This bin re-derives the
//! per-iteration metric timelines — writes issued/skipped, skip fraction,
//! wear faults, detection-campaign cost and accuracy, tile retirements —
//! purely from the trace, without re-running the flow.
//!
//! ```text
//! cargo run --release -p ftt-bench --bin replay -- --trace run.jsonl
//! cargo run --release -p ftt-bench --bin replay            # self-check
//! ```
//!
//! Without `--trace` it records a seeded fault-tolerant run in memory,
//! replays its own trace, and cross-checks the rebuilt totals against the
//! trainer's `FlowStats` — a second, independent proof that the trace is a
//! complete account of the run.

use ftt_bench::{arg_value, write_csv};
use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::json::{extract_f64, extract_str, extract_u64};
use obs::{JsonlSink, Recorder};
use rram::endurance::EnduranceModel;

/// One training iteration's metrics, rebuilt from its events.
#[derive(Debug, Default, Clone, Copy)]
struct IterPoint {
    iteration: u64,
    writes_issued: u64,
    writes_skipped: u64,
    new_wear_faults: u64,
    max_abs_dw: f64,
    cum_pulses: u64,
}

/// One detection campaign's metrics, rebuilt from its end event.
#[derive(Debug, Default, Clone, Copy)]
struct CampaignPoint {
    campaign: u64,
    iteration: u64,
    flagged_cells: u64,
    cycles: u64,
    write_pulses: u64,
    untested_groups: u64,
    precision: f64,
    recall: f64,
}

#[derive(Debug, Default)]
struct Timeline {
    iters: Vec<IterPoint>,
    campaigns: Vec<CampaignPoint>,
    retired_tiles: Vec<(u64, u64)>,  // (iteration, tile)
    spares_attached: Vec<(u64, u64)>, // (iteration, tile)
    remaps: Vec<(u64, u64, u64)>,    // (iteration, initial_cost, final_cost)
    total_wear_faults: u64,
    burst_skipped: u64,
    pulses_by_phase: Vec<(String, u64)>,
    events: u64,
    skipped_lines: u64,
}

impl Timeline {
    fn phase_add(&mut self, phase: &str, pulses: u64) {
        match self.pulses_by_phase.iter_mut().find(|(p, _)| p == phase) {
            Some((_, total)) => *total += pulses,
            None => self.pulses_by_phase.push((phase.to_string(), pulses)),
        }
    }

    fn phase_pulses(&self, phase: &str) -> u64 {
        self.pulses_by_phase
            .iter()
            .find(|(p, _)| p == phase)
            .map_or(0, |&(_, total)| total)
    }
}

/// Replays one JSONL trace into metric timelines. Lines that are not
/// trace events (missing `kind`) are counted and skipped, not fatal —
/// traces may be interleaved with other log output.
fn replay(trace: &str) -> Timeline {
    let mut t = Timeline::default();
    for line in trace.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (Some(kind), Some(iter)) = (extract_str(line, "kind"), extract_u64(line, "iter"))
        else {
            t.skipped_lines += 1;
            continue;
        };
        t.events += 1;
        match kind.as_str() {
            "training_iteration" => t.iters.push(IterPoint {
                iteration: iter,
                writes_issued: extract_u64(line, "writes_issued").unwrap_or(0),
                writes_skipped: extract_u64(line, "writes_skipped").unwrap_or(0),
                new_wear_faults: extract_u64(line, "new_wear_faults").unwrap_or(0),
                max_abs_dw: extract_f64(line, "max_abs_dw").unwrap_or(0.0),
                cum_pulses: extract_u64(line, "pulses").unwrap_or(0),
            }),
            "threshold_skip_burst" => {
                t.burst_skipped += extract_u64(line, "writes_skipped").unwrap_or(0);
            }
            "detection_campaign_end" => {
                let tp = extract_u64(line, "true_pos").unwrap_or(0);
                let fp = extract_u64(line, "false_pos").unwrap_or(0);
                let fneg = extract_u64(line, "false_neg").unwrap_or(0);
                let ratio = |num: u64, den: u64| {
                    if den == 0 {
                        1.0
                    } else {
                        num as f64 / den as f64
                    }
                };
                t.campaigns.push(CampaignPoint {
                    campaign: extract_u64(line, "campaign").unwrap_or(0),
                    iteration: iter,
                    flagged_cells: extract_u64(line, "flagged_cells").unwrap_or(0),
                    cycles: extract_u64(line, "cycles").unwrap_or(0),
                    write_pulses: extract_u64(line, "write_pulses").unwrap_or(0),
                    untested_groups: extract_u64(line, "untested_groups").unwrap_or(0),
                    precision: ratio(tp, tp + fp),
                    recall: ratio(tp, tp + fneg),
                });
            }
            "remap_applied" => t.remaps.push((
                iter,
                extract_u64(line, "initial_cost").unwrap_or(0),
                extract_u64(line, "final_cost").unwrap_or(0),
            )),
            "wear_fault" => {
                t.total_wear_faults = extract_u64(line, "total_faults").unwrap_or(t.total_wear_faults);
            }
            "write_pulse_batch" => {
                let phase = extract_str(line, "phase").unwrap_or_else(|| "unknown".into());
                t.phase_add(&phase, extract_u64(line, "batch_pulses").unwrap_or(0));
            }
            "tile_retired" => t.retired_tiles.push((iter, extract_u64(line, "tile").unwrap_or(0))),
            "spare_attached" => {
                t.spares_attached.push((iter, extract_u64(line, "tile").unwrap_or(0)));
            }
            _ => {} // campaign starts and future kinds carry no timeline data
        }
    }
    t
}

fn print_timeline(t: &Timeline) -> String {
    let mut csv = String::from("iteration,writes_issued,writes_skipped,new_wear_faults,max_abs_dw,cum_pulses\n");
    println!("# per-iteration timeline (rebuilt from trace)");
    println!("iteration, writes_issued, writes_skipped, new_wear_faults, max_abs_dw, cum_pulses");
    for p in &t.iters {
        println!(
            "{}, {}, {}, {}, {:.6}, {}",
            p.iteration, p.writes_issued, p.writes_skipped, p.new_wear_faults, p.max_abs_dw, p.cum_pulses
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{}\n",
            p.iteration, p.writes_issued, p.writes_skipped, p.new_wear_faults, p.max_abs_dw, p.cum_pulses
        ));
    }
    if !t.campaigns.is_empty() {
        println!();
        println!("# detection campaigns");
        println!("campaign, iteration, flagged, cycles, write_pulses, untested, precision, recall");
        for c in &t.campaigns {
            println!(
                "{}, {}, {}, {}, {}, {}, {:.3}, {:.3}",
                c.campaign, c.iteration, c.flagged_cells, c.cycles, c.write_pulses, c.untested_groups, c.precision, c.recall
            );
        }
    }
    if !t.remaps.is_empty() {
        println!();
        println!("# remaps applied");
        println!("iteration, initial_cost, final_cost");
        for (iter, initial, fin) in &t.remaps {
            println!("{iter}, {initial}, {fin}");
        }
    }
    if !t.retired_tiles.is_empty() || !t.spares_attached.is_empty() {
        println!();
        println!(
            "# sparing: {} tiles retired, {} spares attached",
            t.retired_tiles.len(),
            t.spares_attached.len()
        );
    }
    println!();
    println!("# totals");
    let issued: u64 = t.iters.iter().map(|p| p.writes_issued).sum();
    let skipped: u64 = t.iters.iter().map(|p| p.writes_skipped).sum();
    println!("events_replayed, {}", t.events);
    println!("iterations, {}", t.iters.len());
    println!("writes_issued, {issued}");
    println!("writes_skipped, {skipped}");
    println!("skip_burst_suppressed, {}", t.burst_skipped);
    println!("wear_faults, {}", t.total_wear_faults);
    for (phase, pulses) in &t.pulses_by_phase {
        println!("pulses_{phase}, {pulses}");
    }
    if t.skipped_lines > 0 {
        println!("non_event_lines_skipped, {}", t.skipped_lines);
    }
    csv
}

/// Records a seeded fault-tolerant run and returns its trace plus the
/// trainer's own aggregate stats for cross-checking.
fn record_demo_run() -> (String, ftt_core::report::FlowStats) {
    let seed = 11;
    let mut rng = nn::init::init_rng(seed);
    let mut net = nn::network::Network::new();
    net.push(nn::layers::Dense::new(784, 12, &mut rng));
    net.push(nn::layers::Relu::new());
    net.push(nn::layers::Dense::new(12, 10, &mut rng));
    let mapping = MappingConfig::new(MappingScope::EntireNetwork)
        .with_initial_fault_fraction(0.15)
        .with_endurance(EnduranceModel::new(40.0, 10.0))
        .with_seed(seed)
        .with_spare_tiles(4)
        .with_retire_fault_density(0.3);
    let flow = FlowConfig::fault_tolerant()
        .with_lr(LrSchedule::constant(0.1))
        .with_detection_interval(5)
        .with_detection_warmup(0)
        .with_eval_interval(5);
    let recorder = Recorder::deterministic();
    let sink = JsonlSink::new();
    let view = sink.view();
    recorder.add_sink(Box::new(sink));
    let mut trainer = FaultTolerantTrainer::with_recorder(net, mapping, flow, recorder)
        .expect("valid demo configuration");
    let data = SyntheticDataset::mnist_like(40, 10, seed);
    trainer.train(&data, 25).expect("demo training run");
    (view.contents(), trainer.stats())
}

fn main() {
    let (trace, check) = match arg_value("--trace") {
        Some(path) => match std::fs::read_to_string(&path) {
            Ok(contents) => (contents, None),
            Err(e) => {
                eprintln!("cannot read trace {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            println!("# no --trace given: recording a seeded demo run and replaying its trace");
            let (trace, stats) = record_demo_run();
            (trace, Some(stats))
        }
    };

    let timeline = replay(&trace);
    let csv = print_timeline(&timeline);
    write_csv("replay", &csv);

    // Self-check: the trace must be a complete account of the run.
    if let Some(stats) = check {
        let issued: u64 = timeline.iters.iter().map(|p| p.writes_issued).sum();
        let skipped: u64 = timeline.iters.iter().map(|p| p.writes_skipped).sum();
        let checks = [
            ("writes_issued", issued, stats.writes_issued),
            ("writes_skipped", skipped, stats.writes_skipped),
            // One training write is one pulse.
            ("training pulses", timeline.phase_pulses("training"), stats.writes_issued),
            ("detection pulses", timeline.phase_pulses("detection"), stats.detection_writes),
            ("wear_faults", timeline.total_wear_faults, stats.wear_faults_during_training),
            ("campaigns", timeline.campaigns.len() as u64, stats.detection_campaigns),
        ];
        let mut ok = true;
        for (name, trace, trainer) in checks {
            if trace != trainer {
                eprintln!("MISMATCH {name}: trace {trace} vs trainer {trainer}");
                ok = false;
            }
        }
        if !ok {
            std::process::exit(1);
        }
        println!();
        println!("self-check PASS: replayed totals match the trainer's FlowStats");
    }
}
