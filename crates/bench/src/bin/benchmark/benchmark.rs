//! `benchmark` — the repository's benchmark: five workloads, each timed at
//! thread budgets {nproc, 1}, with a correctness gate and a traced pass for
//! per-layer numbers. README.md in this directory defines the workloads
//! and metrics; `BENCHMARK.json` at the repository root declares them.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --seed 17
//! cargo run --release --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- \
//!     --workload serve_mixed --trace 1
//! ```
//!
//! Flags: `--workload <name|all>` (default all), `--seed <n>` (17),
//! `--seconds <s>` (20: timed repetitions per workload), `--trace <0|1>`
//! (bare `--trace` means 1). Each workload prints `workload metric value
//! unit` lines and then one JSON line
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 1 if
//! any correctness check failed and 2 on a usage error.

mod hooks;
mod layers;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use hooks::Breakdown;
use workloads::{Outcome, Scale, Workload};

/// End-to-end metrics `(name, unit)`, reported by every workload.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("throughput_per_s_t1", "1/s"),
    ("peak_rss_mb", "MB"),
    ("write_pulses_per_step", "count"),
    ("energy_uj_per_step", "uJ"),
    ("quality", "fraction"),
];

/// Per-layer metrics `(name, unit)`, reported by every workload's traced
/// pass.
const PER_LAYER: [(&str, &str); 26] = [
    ("flow.iter_ms_p50", "ms"),
    ("flow.iter_ms_p99", "ms"),
    ("flow.compute_share", "fraction"),
    ("flow.update_share", "fraction"),
    ("flow.eval_share", "fraction"),
    ("strategy.share", "fraction"),
    ("strategy.phase_ms", "ms"),
    ("strategy.campaigns", "count"),
    ("faultdet.detect_share", "fraction"),
    ("faultdet.cycles_per_campaign", "count"),
    ("remap.search_share", "fraction"),
    ("remap.dist_reduction", "fraction"),
    ("tile.sparing_share", "fraction"),
    ("tile.tiles_retired", "count"),
    ("threshold.skip_fraction", "fraction"),
    ("threshold.writes_per_iter", "count"),
    ("mapping.load_effective_weights_us", "us"),
    ("nn.forward_train_us", "us"),
    ("nn.backward_us", "us"),
    ("nn.eval_forward_ms", "ms"),
    ("tile.mvm_batch_b8_us", "us"),
    ("tile.mvm_single_x8_us", "us"),
    ("step.ms_p50", "ms"),
    ("step.ms_p99", "ms"),
    ("par.speedup", "ratio"),
    ("trace.overhead", "fraction"),
];

const DEFAULT_SECONDS: f64 = 20.0;
/// Timed pairs (one run per budget) of a pass, at least: the fastest-step
/// estimator needs a few runs at each budget.
const MIN_PAIRS: usize = 3;
/// Seed of the canonical inputs the modelled-design metrics are taken on.
/// They do not follow `--seed`, so those metrics repeat exactly on every
/// run and any change to them is a change to the simulation.
const CANONICAL_SEED: u64 = 0;
/// Repetitions of each standalone layer probe.
const PROBE_REPS: usize = 40;

/// The median (0 for no samples). Sorts `v`.
fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p`-quantile (0 for no samples). Sorts `v`.
fn quantile(v: &mut [f64], p: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    v.get(rank.clamp(1, v.len().max(1)) - 1)
        .copied()
        .unwrap_or(0.0)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

#[derive(Debug)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 17,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        let need = |flag: &str| value.ok_or_else(|| format!("{flag} needs a value"));
        match args[i].as_str() {
            "--workload" => {
                let v = need("--workload")?;
                parsed.workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    vec![Workload::from_name(v).ok_or_else(|| {
                        format!("unknown workload `{v}` (one of: all, {})", names.join(", "))
                    })?]
                };
            }
            "--seed" => {
                let v = need("--seed")?;
                parsed.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--seconds" => {
                let v = need("--seconds")?;
                parsed.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{v}`"))?;
            }
            "--trace" => match value {
                Some("0") => parsed.trace = false,
                Some("1") => parsed.trace = true,
                _ => {
                    parsed.trace = true;
                    i += 1;
                    continue;
                }
            },
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    Ok(parsed)
}

/// One workload's result: the metrics in declaration order plus the
/// correctness verdict and operation counts.
#[derive(Debug, Default)]
struct Measured {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Measured {
    /// Fills the metrics from `values`, in the order of `declared`.
    fn set(&mut self, declared: &[(&'static str, &'static str)], values: &[(&str, f64)]) {
        for &(name, unit) in declared {
            match values.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v.is_finite() => self.metrics.push((name, unit, v)),
                Some(&(_, v)) => self.errors.push(format!("{name} is not finite ({v})")),
                None => self.errors.push(format!("{name} was not measured")),
            }
        }
    }

    fn correct(&self) -> bool {
        self.errors.is_empty() && self.attempted > 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Repetitions of one workload on the `--seed` inputs, the correctness gate
/// over them (every run, at either budget, must produce the first run's
/// simulated outputs), and the fastest-step estimator.
///
/// The host the benchmark shares slows a core by up to 2x in bursts that
/// come and go within a second, so whole-run times scatter with the share
/// of a run the bursts hit. Every run of the same inputs does the same
/// work in each step, so the estimator keeps each step's fastest time over
/// the runs at a budget; the sum is the run's time with the bursts taken
/// out, and throughput is the run's work over that sum.
struct Session<'a> {
    w: Workload,
    scale: &'a Scale,
    seed: u64,
    /// Thread budgets of the two timed slots: nproc, then 1.
    budgets: [usize; 2],
    /// The warm-up's outcome on the canonical inputs.
    canonical: Option<Outcome>,
    /// Fingerprint of the first timed run.
    first: Option<u64>,
    /// The work of one run.
    work: u64,
    setup_s: Vec<f64>,
    /// Per slot: each step's fastest host seconds over the timed runs.
    fastest: [Vec<f64>; 2],
    /// Per slot: every step's host seconds, over the timed runs.
    steps_s: [Vec<f64>; 2],
    m: Measured,
}

impl<'a> Session<'a> {
    fn new(w: Workload, scale: &'a Scale, seed: u64) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            w,
            scale,
            seed,
            budgets: [nproc, 1],
            canonical: None,
            first: None,
            work: 0,
            setup_s: Vec::new(),
            fastest: [Vec::new(), Vec::new()],
            steps_s: [Vec::new(), Vec::new()],
            m: Measured::default(),
        }
    }

    fn fail(&mut self, e: String) {
        eprintln!("{}: {e}", self.w.name());
        self.m.attempted += 1;
        self.m.failed += 1;
    }

    fn count(&mut self, out: &Outcome) {
        self.m.attempted += out.work + out.refused;
        self.m.failed += out.refused;
    }

    /// Compares a run of the `--seed` inputs with the first one.
    fn check(&mut self, out: &Outcome, what: &str) {
        match self.first {
            None => self.first = Some(out.fingerprint),
            Some(first) if first != out.fingerprint => self.m.errors.push(format!(
                "{}: {what} changed the simulated outputs of seed {}",
                self.w.name(),
                self.seed
            )),
            Some(_) => {}
        }
    }

    /// Sets up and runs the workload on `seed`'s inputs at the budget of
    /// `slot`, counting its operations. Returns the outcome and the set-up
    /// seconds.
    fn rep(&mut self, seed: u64, slot: usize, timed: bool) -> Option<(Outcome, f64)> {
        let budget = self.budgets[slot];
        par::set_thread_count(budget);
        let start = Instant::now();
        let result = workloads::prepare(self.w, self.scale, seed, timed).and_then(|mut p| {
            let setup = start.elapsed().as_secs_f64();
            Ok((p.run()?, setup))
        });
        match result {
            Ok((out, setup)) => {
                let run_s: f64 = out.step_s.iter().sum();
                eprintln!(
                    "{}: seed {seed}, {budget} threads: set-up {setup:.4} s, run {run_s:.4} s",
                    self.w.name()
                );
                self.count(&out);
                Some((out, setup))
            }
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }

    /// The warm-up, outside the timings, on the canonical inputs: their
    /// simulated statistics are the modelled-design metrics. It runs at
    /// budget 1, so it allocates the same way every time, and the
    /// process's peak resident set right after it is `peak_rss_mb`. The
    /// kernel oracles follow, on the `--seed` inputs.
    fn warm_up(&mut self) -> f64 {
        self.canonical = self.rep(CANONICAL_SEED, 1, true).map(|(out, _)| out);
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            self.m.errors.push(e);
            f64::NAN
        });
        let spec = workloads::trainer_spec(self.w, self.scale, self.seed);
        if let Err(e) = layers::kernel_oracles(workloads::plane(self.w, &spec), self.seed) {
            self.m.errors.push(e);
        }
        rss
    }

    /// Keeps each step's fastest time of a run at the budget of `slot`.
    fn keep_fastest(&mut self, slot: usize, out: &Outcome) {
        self.work = out.work;
        self.steps_s[slot].extend(&out.step_s);
        let best = &mut self.fastest[slot];
        if best.is_empty() {
            best.clone_from(&out.step_s);
        } else if best.len() == out.step_s.len() {
            for (b, s) in best.iter_mut().zip(&out.step_s) {
                *b = b.min(*s);
            }
        } else {
            let e = format!(
                "a run took {} steps, an earlier run of the same inputs {}",
                out.step_s.len(),
                best.len()
            );
            self.m.errors.push(e);
        }
    }

    /// Timed repetitions at both budgets (alternating which goes first)
    /// until about `seconds` have passed and at least `min_pairs` pairs ran.
    fn timed_pairs(&mut self, min_pairs: usize, seconds: f64) {
        let start = Instant::now();
        let (mut pairs, mut last) = (0usize, 0.0f64);
        while pairs < min_pairs || start.elapsed().as_secs_f64() + last / 2.0 < seconds {
            let t = Instant::now();
            let order = if pairs % 2 == 0 { [0, 1] } else { [1, 0] };
            for slot in order {
                if let Some((out, setup)) = self.rep(self.seed, slot, true) {
                    let what = format!("a run at {} threads", self.budgets[slot]);
                    self.check(&out, &what);
                    self.setup_s.push(setup);
                    self.keep_fastest(slot, &out);
                }
            }
            last = t.elapsed().as_secs_f64();
            pairs += 1;
        }
        if self.fastest.iter().any(Vec::is_empty) {
            self.m
                .errors
                .push("no timed run succeeded at one of the budgets".into());
        }
    }

    /// Work per second of the run at the budget of `slot`, over the sum of
    /// its fastest step times.
    fn rate(&self, slot: usize) -> f64 {
        ratio(self.work as f64, self.fastest[slot].iter().sum())
    }

    /// The step timer's cost at budget nproc: untimed and timed runs
    /// alternate for about `seconds` (at least `min_pairs` pairs), and the
    /// fastest whole run of each kind is compared.
    fn timer_overhead(&mut self, min_pairs: usize, seconds: f64) -> f64 {
        let start = Instant::now();
        let mut fastest = [f64::INFINITY; 2];
        let mut pairs = 0;
        while pairs < min_pairs || start.elapsed().as_secs_f64() < seconds {
            for (i, timed, what) in [(0, false, "an untimed run"), (1, true, "a timed run")] {
                if let Some((out, _)) = self.rep(self.seed, 0, timed) {
                    self.check(&out, what);
                    fastest[i] = fastest[i].min(out.step_s.iter().sum());
                }
            }
            pairs += 1;
        }
        1.0 - ratio(fastest[0], fastest[1])
    }
}

/// The end-to-end pass: a warm-up, then timed repetitions at both budgets.
fn end_to_end(w: Workload, scale: &Scale, seed: u64, seconds: f64) -> Measured {
    let mut s = Session::new(w, scale, seed);
    let rss = s.warm_up();
    s.timed_pairs(MIN_PAIRS, seconds);
    let Some(out) = s.canonical.take() else {
        s.m.errors.push("the canonical run failed".into());
        return s.m;
    };
    let steps = out.steps as f64;
    let values = [
        ("setup_s", median(&mut s.setup_s)),
        ("throughput_per_s", s.rate(0)),
        ("throughput_per_s_t1", s.rate(1)),
        ("peak_rss_mb", rss),
        (
            "write_pulses_per_step",
            ratio(out.write_pulses as f64, steps),
        ),
        ("energy_uj_per_step", ratio(out.energy_uj, steps)),
        ("quality", out.quality),
    ];
    s.m.set(&END_TO_END, &values);
    s.m
}

/// Share of a hooked run spent in the library's `<phase>` span under the
/// detection phase (0 when the span never ran).
fn span_share(trainer: &ftt_core::flow::FaultTolerantTrainer, phase: &str, b: &Breakdown) -> f64 {
    let name = format!("span_flow_iteration.detection_phase.{phase}_ns");
    let ns = trainer
        .recorder()
        .registry()
        .histogram_handle(&name)
        .map_or(0, |h| h.sum());
    b.share(ns as f64 / 1e9)
}

/// The traced pass, at budget nproc after the timed pairs that give
/// `par.speedup` and `step.*`: the step timer's overhead, a run of the
/// workload's trainer under [`hooks::TimedDetectRemap`], and the
/// standalone layer probes.
fn traced(w: Workload, scale: &Scale, seed: u64, seconds: f64) -> Measured {
    let mut s = Session::new(w, scale, seed);
    s.warm_up();
    s.timed_pairs(MIN_PAIRS, seconds / 2.0);
    let overhead = s.timer_overhead(2, seconds / 4.0);
    match traced_values(&mut s, overhead) {
        Ok(values) => s.m.set(&PER_LAYER, &values),
        Err(e) => {
            s.fail(e.clone());
            s.m.errors.push(e);
        }
    }
    s.m
}

fn traced_values(s: &mut Session<'_>, overhead: f64) -> Result<Vec<(&'static str, f64)>, String> {
    let (w, scale, seed) = (s.w, s.scale, s.seed);
    par::set_thread_count(s.budgets[0]);
    let spec = workloads::trainer_spec(w, scale, seed);
    let plane = workloads::plane(w, &spec);
    let data = spec.data.clone();
    let mut net = spec.network();

    let mut hooked = workloads::prepare_trainer(spec, true)?;
    let out = hooked.run()?;
    if !matches!(w, Workload::ServeMixed | Workload::ArenaReference) {
        s.count(&out);
        s.check(&out, "the hooked run");
    }
    let b = out.breakdown.ok_or("the hooked run has no breakdown")?;
    let trainer = hooked.trainer().ok_or("the hooked run has no trainer")?;

    let stats = trainer.stats();
    let iterations = b.iter_ms.len() as f64;
    let load_us = layers::load_weights_probe(trainer.mapped(), &mut net, PROBE_REPS)?;
    let (fwd_us, bwd_us, eval_ms) = layers::nn_probe(&mut net, &data, PROBE_REPS)?;
    let (batch_us, single_us) = layers::tile_probe(plane, seed, PROBE_REPS)?;
    let mut iter_ms = b.iter_ms.clone();
    let mut step_ms: Vec<f64> = s.steps_s[0].iter().map(|x| x * 1e3).collect();
    Ok(vec![
        ("flow.iter_ms_p50", median(&mut iter_ms)),
        ("flow.iter_ms_p99", quantile(&mut iter_ms, 0.99)),
        ("flow.compute_share", b.share(b.compute_s)),
        ("flow.update_share", b.share(b.update_s)),
        ("flow.eval_share", b.share(b.eval_s)),
        ("strategy.share", b.share(b.strategy_s)),
        ("strategy.phase_ms", ratio(b.strategy_s * 1e3, iterations)),
        ("strategy.campaigns", stats.detection_campaigns as f64),
        ("faultdet.detect_share", span_share(trainer, "detect", &b)),
        (
            "faultdet.cycles_per_campaign",
            ratio(
                stats.detection_cycles as f64,
                stats.detection_campaigns as f64,
            ),
        ),
        (
            "remap.search_share",
            span_share(trainer, "remap_search", &b),
        ),
        (
            "remap.dist_reduction",
            ratio(
                stats.last_remap_initial_cost as f64 - stats.last_remap_final_cost as f64,
                stats.last_remap_initial_cost as f64,
            ),
        ),
        (
            "tile.sparing_share",
            span_share(trainer, "tile_sparing", &b),
        ),
        ("tile.tiles_retired", stats.tiles_retired as f64),
        ("threshold.skip_fraction", stats.skipped_fraction()),
        (
            "threshold.writes_per_iter",
            ratio(stats.writes_issued as f64, iterations),
        ),
        ("mapping.load_effective_weights_us", load_us),
        ("nn.forward_train_us", fwd_us),
        ("nn.backward_us", bwd_us),
        ("nn.eval_forward_ms", eval_ms),
        ("tile.mvm_batch_b8_us", batch_us),
        ("tile.mvm_single_x8_us", single_us),
        ("step.ms_p50", median(&mut step_ms)),
        ("step.ms_p99", quantile(&mut step_ms, 0.99)),
        ("par.speedup", ratio(s.rate(0), s.rate(1))),
        ("trace.overhead", overhead),
    ])
}

fn measure(w: Workload, scale: &Scale, seed: u64, seconds: f64, trace: bool) -> Measured {
    let m = if trace {
        traced(w, scale, seed, seconds)
    } else {
        end_to_end(w, scale, seed, seconds)
    };
    par::set_thread_count(0);
    m
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::full();
    let mut all_correct = true;
    for w in args.workloads {
        let m = measure(w, &scale, args.seed, args.seconds, args.trace);
        for (name, unit, v) in &m.metrics {
            println!("{} {name} {v} {unit}", w.name());
        }
        for e in &m.errors {
            eprintln!("{}: correctness: {e}", w.name());
        }
        all_correct &= m.correct();
        println!("{}", m.json());
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

    /// The `"name"` strings of the array under `key` in BENCHMARK.json.
    fn declared(key: &str) -> Vec<String> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("array end")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("name value").to_string())
            .collect()
    }

    fn valid(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_and_workload_names_are_valid_and_declared() {
        for (key, ours) in [
            ("end_to_end", END_TO_END.map(|m| m.0).to_vec()),
            ("per_layer", PER_LAYER.map(|m| m.0).to_vec()),
            ("workloads", Workload::ALL.map(|w| w.name()).to_vec()),
        ] {
            assert!(ours.iter().all(|n| valid(n)), "{key}: {ours:?}");
            assert_eq!(declared(key), ours, "{key} differs from BENCHMARK.json");
        }
    }

    #[test]
    fn every_workload_reports_every_declared_metric() {
        for w in Workload::ALL {
            for (trace, names) in [
                (false, END_TO_END.map(|m| m.0).to_vec()),
                (true, PER_LAYER.map(|m| m.0).to_vec()),
            ] {
                let m = measure(w, &Scale::tiny(), 3, 0.0, trace);
                assert!(m.correct(), "{} trace={trace}: {:?}", w.name(), m.errors);
                let got: Vec<&str> = m.metrics.iter().map(|(n, _, _)| *n).collect();
                assert_eq!(got, names, "{} trace={trace}", w.name());
                assert_eq!(m.failed, 0);
            }
        }
    }

    #[test]
    fn the_fastest_step_estimator_takes_each_steps_minimum() {
        let scale = Scale::tiny();
        let mut s = Session::new(Workload::MlpThreshold, &scale, 3);
        let mut out = s.rep(3, 1, true).expect("run").0;
        out.work = 10;
        for steps in [[1.0, 4.0, 2.0], [3.0, 1.0, 2.5], [2.0, 2.0, 1.5]] {
            out.step_s = steps.to_vec();
            s.keep_fastest(1, &out);
        }
        assert_eq!(s.fastest[1], [1.0, 1.0, 1.5]);
        assert_eq!(s.rate(1), 10.0 / 3.5);
        assert!(s.m.errors.is_empty());
        out.step_s.push(1.0);
        s.keep_fastest(1, &out);
        assert_eq!(s.m.errors.len(), 1, "a run with another step count");
    }

    #[test]
    fn sizes_are_not_command_line_options() {
        let args = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        for knob in ["--iterations", "--ticks", "--scale", "--size"] {
            assert!(args(&[knob, "5"]).is_err(), "{knob} must be rejected");
        }
        let a = args(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "4",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("every flag at once");
        assert_eq!(a.workloads, vec![Workload::ServeMixed]);
        assert_eq!((a.seed, a.seconds, a.trace), (4, 3.0, true));
        assert!(args(&["--trace"]).expect("bare --trace").trace);
        assert!(!args(&["--trace", "0"]).expect("--trace 0").trace);
        assert!(args(&["--workload", "nope"]).is_err());
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(median(&mut v), 50.5);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
