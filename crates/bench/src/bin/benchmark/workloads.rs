//! The five workloads: how each is built from a seed, run, and reduced to
//! the simulated outputs the correctness gate compares.
//!
//! Every workload goes through public APIs only: `FlowConfig` presets and
//! builders, `FaultTolerantTrainer::{with_strategy, train, stats, curve,
//! mapped}`, `DetectRemap::new`, the public `Service` API, `ftt_arena::run`,
//! `TiledMapping` and `Crossbar` (README.md, "API stability").

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Instant;

use ftt_arena::ArenaConfig;
use ftt_core::config::{FlowConfig, MappingConfig, MappingScope};
use ftt_core::flow::FaultTolerantTrainer;
use ftt_core::strategy::{DetectRemap, FaultStrategy};
use ftt_core::telemetry::FlowMetrics;
use ftt_serve::{
    placement_salt, Admission, ChipNodeConfig, InferenceSpec, Service, ServiceConfig, TenantSpec,
    TrainingSpec, WorkloadGen, WorkloadSpec,
};
use ftt_tile::LullConfig;
use nn::data::Dataset;
use nn::init::init_rng;
use nn::network::Network;
use nn::optimizer::LrSchedule;
use nn::synth::SyntheticDataset;
use obs::Recorder;
use rram::energy::{EnergyModel, OperationCounts};

use crate::hooks::{Breakdown, HookLog, TimedDetectRemap};

/// The benchmark's workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MlpThreshold,
    MlpDetectRemap,
    VggFaultTolerant,
    ServeMixed,
    ArenaReference,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::MlpThreshold,
        Workload::MlpDetectRemap,
        Workload::VggFaultTolerant,
        Workload::ServeMixed,
        Workload::ArenaReference,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MlpThreshold => "mlp_threshold",
            Workload::MlpDetectRemap => "mlp_detect_remap",
            Workload::VggFaultTolerant => "vgg_fault_tolerant",
            Workload::ServeMixed => "serve_mixed",
            Workload::ArenaReference => "arena_reference",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Every size the workloads run at. Sizes are parameters of the workload
/// functions, not command-line options: the benchmark is defined by
/// [`Scale::full`], and the tests run [`Scale::tiny`].
#[derive(Debug, Clone)]
pub struct Scale {
    /// `(train, test)` samples of the MNIST-like task.
    pub mnist: (usize, usize),
    /// `(train, test)` samples of the Cifar-like task.
    pub cifar: (usize, usize),
    pub mlp_iterations: u64,
    pub detect_iterations: u64,
    /// Iterations before the first detection campaign (the detect/remap
    /// workload and the serve training tenants).
    pub detect_warmup: u64,
    /// Iterations between detection campaigns.
    pub detect_interval: u64,
    pub vgg_divisor: usize,
    pub vgg_iterations: u64,
    /// Ticks of offered traffic (queues drain afterwards).
    pub serve_ticks: u64,
    /// The arena sweep; its seed is replaced by the run's seed.
    pub arena: ArenaConfig,
}

impl Scale {
    /// The benchmark's sizes: each run of a workload takes 0.3 to 1 s on
    /// two cores, so a measured run holds ten or more repetitions at each
    /// thread budget for the fastest-step estimator.
    pub fn full() -> Self {
        Self {
            mnist: (512, 128),
            cifar: (512, 128),
            mlp_iterations: 500,
            detect_iterations: 600,
            detect_warmup: 100,
            detect_interval: 50,
            vgg_divisor: 8,
            vgg_iterations: 100,
            serve_ticks: 1500,
            arena: ArenaConfig {
                iterations: 100,
                ..ArenaConfig::reference()
            },
        }
    }

    /// Instances small enough for unit tests.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            mnist: (24, 8),
            cifar: (8, 4),
            mlp_iterations: 12,
            detect_iterations: 16,
            detect_warmup: 4,
            detect_interval: 4,
            vgg_divisor: 32,
            vgg_iterations: 2,
            serve_ticks: 24,
            arena: ArenaConfig {
                densities: vec![0.1],
                iterations: 4,
                train_samples: 24,
                test_samples: 8,
                detection_interval: 2,
                ..ArenaConfig::quick()
            },
        }
    }
}

/// Derives an independent sub-seed from the run's seed.
fn salt(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// FNV-1a fold of `bytes` into `hash` (start from [`FNV_OFFSET`]).
fn fnv(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// What one run produced. `work` is in the workload's throughput unit
/// (training iterations, served requests, arena contender-iterations);
/// `steps` is its logical step (iteration, service tick,
/// contender-iteration).
#[derive(Debug)]
pub struct Outcome {
    pub work: u64,
    pub steps: u64,
    /// Work refused by the system (serve admission answers other than
    /// `Admitted`).
    pub refused: u64,
    pub quality: f64,
    pub write_pulses: u64,
    pub energy_uj: f64,
    /// FNV-1a over every simulated output of the run.
    pub fingerprint: u64,
    /// Host seconds of the run, split at its step boundaries when the run
    /// was timed (the `train` call's preamble, then each iteration; or
    /// each service tick) and otherwise one piece. Runs of the same
    /// inputs do the same work in each piece.
    pub step_s: Vec<f64>,
    /// Where a timed training run's time went.
    pub breakdown: Option<Breakdown>,
}

/// Everything a trainer is built from. Building it (data synthesis, network
/// initialisation, mapping onto the chip) is the workload's set-up.
pub struct TrainerSpec {
    net: Box<dyn Fn() -> Network>,
    pub data: Dataset,
    mapping: MappingConfig,
    flow: FlowConfig,
    iterations: u64,
}

impl TrainerSpec {
    /// A fresh network of the trainer's topology and initial weights.
    pub fn network(&self) -> Network {
        (self.net)()
    }

    /// The largest mapped weight plane `(rows, cols)` and the tile size.
    fn plane(&self) -> (usize, usize, usize) {
        let mut net = self.network();
        let (rows, cols) = net
            .param_layers_mut()
            .map(|(_, p)| p.weight_shape)
            .max_by_key(|&(r, c)| r * c)
            .unwrap_or((1, 1));
        (rows, cols, self.mapping.tile_size)
    }

    fn build(&self, strategy: Box<dyn FaultStrategy>) -> Result<FaultTolerantTrainer, String> {
        FaultTolerantTrainer::with_strategy(
            self.network(),
            self.mapping.clone(),
            self.flow.clone(),
            Recorder::new(),
            strategy,
        )
        .map_err(|e| format!("trainer set-up: {e}"))
    }
}

fn mnist_trainer(scale: &Scale, seed: u64, flow: FlowConfig, iterations: u64) -> TrainerSpec {
    TrainerSpec {
        net: Box::new(move || nn::models::mlp_784_100_10(salt(seed, 2))),
        data: SyntheticDataset::mnist_like(scale.mnist.0, scale.mnist.1, salt(seed, 1)),
        mapping: MappingConfig::new(MappingScope::EntireNetwork).with_seed(salt(seed, 3)),
        flow: FlowConfig {
            data_seed: salt(seed, 4),
            ..flow
        },
        iterations,
    }
}

/// The trainer a workload trains, or for `serve_mixed` and
/// `arena_reference` (whose trainers live inside `Service` and
/// `ftt_arena::run`) the configuration one of them uses: the serve
/// training tenant `train-a`, trained in one call, and the arena's
/// `detect_remap` contender at the middle fault density. The traced pass
/// hooks this trainer for the flow-level rows.
pub fn trainer_spec(w: Workload, scale: &Scale, seed: u64) -> TrainerSpec {
    match w {
        Workload::MlpThreshold => mnist_trainer(
            scale,
            seed,
            FlowConfig::threshold_only(),
            scale.mlp_iterations,
        ),
        Workload::MlpDetectRemap => {
            let mut spec = mnist_trainer(
                scale,
                seed,
                FlowConfig::fault_tolerant()
                    .with_detection_interval(scale.detect_interval)
                    .with_detection_warmup(scale.detect_warmup),
                scale.detect_iterations,
            );
            spec.mapping = spec
                .mapping
                .with_initial_fault_fraction(0.1)
                .with_tile_size(64)
                .with_spare_tiles(8)
                .with_retire_fault_density(0.15);
            spec
        }
        Workload::VggFaultTolerant => {
            let divisor = scale.vgg_divisor;
            TrainerSpec {
                net: Box::new(move || nn::models::vgg11_cifar(divisor, salt(seed, 2))),
                data: SyntheticDataset::cifar_like(scale.cifar.0, scale.cifar.1, salt(seed, 1)),
                mapping: MappingConfig::new(MappingScope::EntireNetwork).with_seed(salt(seed, 3)),
                // One campaign, at the last iteration, as the preset's
                // interval of 200 gives a run of 200 iterations.
                flow: FlowConfig {
                    data_seed: salt(seed, 4),
                    ..FlowConfig::fault_tolerant().with_detection_interval(scale.vgg_iterations)
                },
                iterations: scale.vgg_iterations,
            }
        }
        Workload::ServeMixed => {
            let tenant = training_tenant("train-a", salt(seed, 6), scale);
            let tenant_net = tenant.clone();
            TrainerSpec {
                net: Box::new(move || tenant_net.network()),
                data: tenant.dataset(),
                mapping: tenant.mapping_config(SERVE_TILE, placement_salt(0)),
                flow: tenant.flow_config(),
                iterations: scale.serve_ticks,
            }
        }
        Workload::ArenaReference => {
            let cfg = arena_config(scale, seed);
            let density = cfg.densities[cfg.densities.len() / 2];
            let net_seed = cfg.seed;
            TrainerSpec {
                net: Box::new(move || nn::models::mlp(784, 32, 10, &mut init_rng(net_seed))),
                data: SyntheticDataset::mnist_like(cfg.train_samples, cfg.test_samples, cfg.seed),
                mapping: MappingConfig::new(MappingScope::EntireNetwork)
                    .with_initial_fault_fraction(density)
                    .with_seed(cfg.seed)
                    .with_spare_tiles(cfg.spare_tiles)
                    .with_tile_size(cfg.tile_size),
                flow: FlowConfig::fault_tolerant()
                    .with_lr(LrSchedule::constant(0.1))
                    .with_detection_interval(cfg.detection_interval)
                    .with_detection_warmup(0)
                    .with_eval_interval(cfg.detection_interval),
                iterations: cfg.iterations,
            }
        }
    }
}

/// The largest plane the workload multiplies through, for the tile probes
/// and kernel oracles: serve's `infer-a` tenant, otherwise the trained
/// network's largest mapped layer.
pub fn plane(w: Workload, spec: &TrainerSpec) -> (usize, usize, usize) {
    match w {
        Workload::ServeMixed => (SERVE_INFER[0].1, SERVE_INFER[0].2, SERVE_TILE),
        _ => spec.plane(),
    }
}

fn arena_config(scale: &Scale, seed: u64) -> ArenaConfig {
    let seed = salt(seed, 7);
    ArenaConfig {
        seed,
        strategies: ArenaConfig::all_strategies(seed),
        ..scale.arena.clone()
    }
}

/// A workload set up and ready to run.
pub enum Prepared {
    Train {
        trainer: Box<FaultTolerantTrainer>,
        data: Dataset,
        iterations: u64,
        pulses_at_start: u64,
        /// The stamps of the trainer's [`TimedDetectRemap`], when timed.
        log: Option<HookLog>,
    },
    Serve(Box<ServeRun>),
    Arena(ArenaConfig),
}

/// Sets `w` up from `seed`. A `timed` run splits its host time at step
/// boundaries: training runs under [`TimedDetectRemap`] instead of
/// [`DetectRemap`], the service loop reads the clock every tick. The arena
/// sweep is one opaque call, so it is timed whole either way.
pub fn prepare(w: Workload, scale: &Scale, seed: u64, timed: bool) -> Result<Prepared, String> {
    match w {
        Workload::ServeMixed => Ok(Prepared::Serve(Box::new(ServeRun::new(
            scale, seed, timed,
        )?))),
        Workload::ArenaReference => {
            let cfg = arena_config(scale, seed);
            // `ftt_arena::run` does its set-up (data, reference chips,
            // snapshot clones per contender) inside the sweep, so it cannot
            // be split off the timed run. A sweep of zero iterations is
            // that set-up alone: it is timed as the arena's set-up, and the
            // timed sweep repeats it, so arena throughput includes set-up.
            ftt_arena::run(&ArenaConfig {
                iterations: 0,
                ..cfg.clone()
            })
            .map_err(|e| format!("arena set-up: {e}"))?;
            Ok(Prepared::Arena(cfg))
        }
        _ => prepare_trainer(trainer_spec(w, scale, seed), timed),
    }
}

/// Builds the trainer of `spec`, driven by [`TimedDetectRemap`] when
/// `timed` and by [`DetectRemap`] otherwise.
pub fn prepare_trainer(spec: TrainerSpec, timed: bool) -> Result<Prepared, String> {
    let log: Option<HookLog> = timed.then(|| Rc::new(RefCell::new(Vec::new())));
    let strategy: Box<dyn FaultStrategy> = match &log {
        Some(log) => Box::new(TimedDetectRemap::new(log.clone())),
        None => Box::new(DetectRemap::new()),
    };
    let trainer = spec.build(strategy)?;
    let pulses_at_start = trainer.mapped().total_write_pulses();
    Ok(Prepared::Train {
        trainer: Box::new(trainer),
        data: spec.data,
        iterations: spec.iterations,
        pulses_at_start,
        log,
    })
}

impl Prepared {
    /// Runs the workload once.
    pub fn run(&mut self) -> Result<Outcome, String> {
        match self {
            Prepared::Train {
                trainer,
                data,
                iterations,
                pulses_at_start,
                log,
            } => {
                if let Some(log) = log {
                    log.borrow_mut().clear();
                }
                let start = Instant::now();
                trainer
                    .train(data, *iterations)
                    .map_err(|e| format!("train: {e}"))?;
                let end = Instant::now();
                let mut out = train_outcome(trainer, *iterations, *pulses_at_start);
                out.step_s = vec![end.duration_since(start).as_secs_f64()];
                if let Some(log) = log {
                    let stamps = log.borrow();
                    let b = Breakdown::from_stamps(&stamps, end);
                    if let Some(first) = stamps.first() {
                        let preamble = first.pre_start.duration_since(start).as_secs_f64();
                        out.step_s = std::iter::once(preamble)
                            .chain(b.iter_ms.iter().map(|ms| ms / 1e3))
                            .collect();
                    }
                    out.breakdown = Some(b);
                }
                Ok(out)
            }
            Prepared::Serve(run) => run.run(),
            Prepared::Arena(cfg) => {
                let start = Instant::now();
                let report = ftt_arena::run(cfg).map_err(|e| format!("arena: {e}"))?;
                let mut out = arena_outcome(cfg, &report);
                out.step_s = vec![start.elapsed().as_secs_f64()];
                Ok(out)
            }
        }
    }

    /// The trainer of a training workload, for the per-layer rows.
    pub fn trainer(&self) -> Option<&FaultTolerantTrainer> {
        match self {
            Prepared::Train { trainer, .. } => Some(trainer),
            _ => None,
        }
    }
}

fn train_outcome(trainer: &FaultTolerantTrainer, iterations: u64, pulses_at_start: u64) -> Outcome {
    let stats = trainer.stats();
    let curve = trainer.curve();
    let write_pulses = trainer.mapped().total_write_pulses() - pulses_at_start;
    let energy_uj = stats.energy(&EnergyModel::typical()).total_uj();
    let mut fp = fnv(FNV_OFFSET, format!("{stats:?}").as_bytes());
    fp = fnv(fp, curve.to_jsonl().as_bytes());
    fp = fnv(fp, &write_pulses.to_le_bytes());
    Outcome {
        work: iterations,
        steps: iterations,
        refused: 0,
        quality: curve.final_accuracy(),
        write_pulses,
        energy_uj,
        fingerprint: fp,
        step_s: Vec::new(),
        breakdown: None,
    }
}

fn arena_outcome(cfg: &ArenaConfig, report: &ftt_arena::ArenaReport) -> Outcome {
    let runs = report.rows.len() as u64;
    let work = runs * cfg.iterations;
    let accuracy: f64 = report.rows.iter().map(|r| r.final_accuracy).sum();
    let energy_pj: f64 = report.rows.iter().map(|r| r.energy_pj).sum();
    let write_pulses = report.rows.iter().map(|r| r.write_pulses).sum();
    let fp = fnv(
        fnv(FNV_OFFSET, report.to_jsonl().as_bytes()),
        report.trace.as_bytes(),
    );
    Outcome {
        work,
        steps: work,
        refused: 0,
        quality: accuracy / runs.max(1) as f64,
        write_pulses,
        energy_uj: energy_pj / 1e6,
        fingerprint: fp,
        step_s: Vec::new(),
        breakdown: None,
    }
}

// ---- serve_mixed ------------------------------------------------------

/// Tile size of the serve fleet's chips.
const SERVE_TILE: usize = 64;
/// Inference tenants: `(name, rows, cols, tile quota)`.
const SERVE_INFER: [(&str, usize, usize, usize); 2] =
    [("infer-a", 512, 128, 16), ("infer-b", 256, 64, 4)];
/// Requests per tick per inference tenant outside the lull.
const SERVE_RATE: usize = 7;
/// Extra requests `infer-a` receives on the burst tick.
const SERVE_BURST: usize = 24;
/// Wait, in ticks from submission to completion, within which a request
/// counts as answered on time (`quality`). An idle queue answers in 1.
const SERVE_WAIT_LIMIT: u64 = 2;
/// Ticks allowed for the queues to drain once traffic stops.
const SERVE_DRAIN_TICKS: u64 = 1000;

fn training_tenant(name: &str, seed: u64, scale: &Scale) -> TrainingSpec {
    TrainingSpec {
        name: name.into(),
        inputs: 196,
        hidden: 32,
        classes: 10,
        train_n: 256,
        test_n: 32,
        seed,
        tile_quota: 6,
        fault_fraction: 0.1,
        spare_tiles: 4,
        retire_fault_density: 0.3,
        detection_interval: scale.detect_interval,
        detection_warmup: scale.detect_warmup,
    }
}

struct Traffic {
    name: &'static str,
    rows: usize,
    cols: usize,
    gen: WorkloadGen,
    /// Admitted requests not yet completed: `(ticket, submit tick)`.
    pending: VecDeque<(u64, u64)>,
    completed: u64,
}

/// The serve workload: two inference tenants on a two-node fleet of 64²
/// tiles beside two training tenants, under open-loop traffic in logical
/// ticks with one burst and one lull.
pub struct ServeRun {
    svc: Service,
    traffic: Vec<Traffic>,
    trainers: [&'static str; 2],
    ticks: u64,
    pulses_at_start: u64,
    /// Whether the host time is split per tick.
    timed: bool,
}

impl ServeRun {
    fn new(scale: &Scale, seed: u64, timed: bool) -> Result<Self, String> {
        let err = |e: ftt_serve::ServeError| format!("serve set-up: {e}");
        let ticks = scale.serve_ticks;
        let mut svc = Service::new(ServiceConfig {
            seed: salt(seed, 5),
            nodes: vec![
                ChipNodeConfig::new(SERVE_TILE, 8, 24),
                ChipNodeConfig::new(SERVE_TILE, 8, 24),
            ],
            queue_capacity: 64,
            queue_high_water: 64,
            max_batch: 8,
            campaign_interval: 16,
            detector_test_size: 8,
            lull: LullConfig {
                idle_threshold: 8,
                max_defer: 32,
            },
        })
        .map_err(err)?;
        let mut traffic = Vec::new();
        for (i, &(name, rows, cols, tile_quota)) in SERVE_INFER.iter().enumerate() {
            svc.register(TenantSpec::Inference(InferenceSpec {
                name: name.into(),
                rows,
                cols,
                weight_seed: salt(seed, 8 + i as u64),
                tile_quota,
            }))
            .map_err(err)?;
            let spec = WorkloadSpec {
                base_rate: SERVE_RATE,
                lull_start: ticks / 2,
                lull_end: ticks / 2 + ticks / 8,
                burst_tick: (i == 0).then_some(ticks / 4),
                burst_size: SERVE_BURST,
            };
            traffic.push(Traffic {
                name,
                rows,
                cols,
                gen: WorkloadGen::new(salt(seed, 10 + i as u64), spec),
                pending: VecDeque::new(),
                completed: 0,
            });
        }
        let trainers = ["train-a", "train-b"];
        for (i, name) in trainers.iter().enumerate() {
            let spec = training_tenant(name, salt(seed, 6 + 6 * i as u64), scale);
            svc.register(TenantSpec::Training(spec)).map_err(err)?;
        }
        let pulses_at_start = write_pulses(&svc);
        Ok(Self {
            svc,
            traffic,
            trainers,
            ticks,
            pulses_at_start,
            timed,
        })
    }

    /// Offers the traffic tick by tick until the queues drain. A timed
    /// run's steps are the ticks: each tick's submissions, `Service::tick`
    /// and completion checks.
    fn run(&mut self) -> Result<Outcome, String> {
        let Self {
            svc,
            traffic,
            ticks,
            timed,
            ..
        } = self;
        let (mut submitted, mut refused) = (0u64, 0u64);
        let mut waits: Vec<u64> = Vec::new();
        let mut step_s = Vec::new();
        let start = Instant::now();
        let mut tick_start = start;
        let mut tick = 0u64;
        loop {
            if *timed && tick > 0 {
                let now = Instant::now();
                step_s.push(now.duration_since(tick_start).as_secs_f64());
                tick_start = now;
            }
            if tick >= *ticks {
                if traffic.iter().all(|t| t.pending.is_empty()) {
                    break;
                }
                if tick >= *ticks + SERVE_DRAIN_TICKS {
                    return Err("serve queues did not drain".into());
                }
            } else {
                for t in traffic.iter_mut() {
                    for input in t.gen.requests_for_tick(tick, t.rows) {
                        submitted += 1;
                        match svc.submit(t.name, input) {
                            Admission::Admitted { ticket } => {
                                t.pending.push_back((ticket, svc.tick_count()));
                            }
                            Admission::Busy { .. } | Admission::Shed { .. } => refused += 1,
                        }
                    }
                }
            }
            svc.tick().map_err(|e| format!("serve tick: {e}"))?;
            let now = svc.tick_count();
            for t in traffic.iter_mut() {
                let Some(last) = svc.last_completed_ticket(t.name) else {
                    continue;
                };
                while let Some(&(ticket, at)) = t.pending.front() {
                    if ticket > last {
                        break;
                    }
                    t.pending.pop_front();
                    t.completed += 1;
                    waits.push(now - at);
                }
            }
            tick += 1;
        }
        if !*timed {
            step_s.push(start.elapsed().as_secs_f64());
        }
        let mut out = self.outcome(submitted, refused, &waits);
        out.step_s = step_s;
        Ok(out)
    }

    fn outcome(&mut self, submitted: u64, refused: u64, waits: &[u64]) -> Outcome {
        let svc = &mut self.svc;
        let write_pulses = write_pulses(svc) - self.pulses_at_start;
        let registry = svc.recorder().registry();
        // Training tenants share the service recorder, so the flow
        // counters on it sum over both tenants.
        let training = FlowMetrics::new(svc.recorder().clone()).snapshot();
        let lull_reads: u64 = (0..2)
            .map(|chip| {
                registry
                    .counter_value_labeled(
                        "serve_campaign_cycles_total",
                        &[("chip", chip.to_string().as_str())],
                    )
                    .unwrap_or(0)
            })
            .sum();
        let inference_cells: u64 = self
            .traffic
            .iter()
            .map(|t| t.completed * (t.rows * t.cols) as u64)
            .sum();
        let serving = EnergyModel::typical().estimate(OperationCounts {
            mvm_cell_ops: inference_cells,
            cell_reads: lull_reads,
            write_pulses: 0,
        });
        let energy_uj = training.energy(&EnergyModel::typical()).total_uj() + serving.total_uj();
        let on_time = waits.iter().filter(|&&w| w <= SERVE_WAIT_LIMIT).count() as u64;
        let mut fp = FNV_OFFSET;
        for t in &self.traffic {
            let out = svc.output_fingerprint(t.name).unwrap_or(0);
            fp = fnv(fp, format!("{out}/{}", t.completed).as_bytes());
        }
        for name in self.trainers {
            let params = svc.tenant_params_fingerprint(name).unwrap_or(0);
            fp = fnv(fp, &params.to_le_bytes());
        }
        fp = fnv(
            fp,
            format!(
                "{} {} {} {} {training:?} {write_pulses} {waits:?}",
                svc.sheds(),
                svc.lull_campaigns(),
                svc.migrations(),
                svc.tick_count()
            )
            .as_bytes(),
        );
        Outcome {
            work: submitted - refused,
            steps: svc.tick_count(),
            refused,
            quality: on_time as f64 / submitted.max(1) as f64,
            write_pulses,
            energy_uj,
            fingerprint: fp,
            step_s: Vec::new(),
            breakdown: None,
        }
    }
}

/// Write pulses issued on every chip the service's recorder is attached
/// to: the fleet's tiles and the training tenants' private chips.
fn write_pulses(svc: &Service) -> u64 {
    svc.recorder()
        .registry()
        .counter_value("rram_write_pulses_total")
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_at(w: Workload, budget: usize, timed: bool) -> Outcome {
        par::set_thread_count(budget);
        let mut p = prepare(w, &Scale::tiny(), 5, timed).expect("set-up");
        let out = p.run().expect("run");
        par::set_thread_count(0);
        out
    }

    #[test]
    fn every_workload_is_identical_at_budgets_one_and_two() {
        for w in Workload::ALL {
            let (a, b) = (run_at(w, 1, true), run_at(w, 2, true));
            assert_eq!(a.fingerprint, b.fingerprint, "{}", w.name());
            // The fastest-step estimator pairs steps by index.
            assert_eq!(a.step_s.len(), b.step_s.len(), "{}", w.name());
            assert!(a.work > 0 && a.steps > 0, "{}: {a:?}", w.name());
            assert_eq!(a.refused, 0, "{}: no operation may fail", w.name());
        }
    }

    #[test]
    fn the_step_timer_is_transparent() {
        // FlowStats, curve and pulses are all inside the fingerprint.
        for w in Workload::ALL {
            let (timed, plain) = (run_at(w, 1, true), run_at(w, 1, false));
            assert_eq!(timed.fingerprint, plain.fingerprint, "{}", w.name());
            assert_eq!(plain.step_s.len(), 1, "{}", w.name());
            if w == Workload::ArenaReference {
                assert_eq!(timed.step_s.len(), 1);
            } else {
                assert!(timed.step_s.len() as u64 >= timed.steps, "{}", w.name());
            }
            assert!(timed.step_s.iter().all(|s| *s >= 0.0), "{}", w.name());
        }
        let spec = trainer_spec(Workload::MlpThreshold, &Scale::tiny(), 9);
        let iterations = spec.iterations as usize;
        let mut p = prepare_trainer(spec, true).expect("set-up");
        let b = p
            .run()
            .expect("run")
            .breakdown
            .expect("a timed run's breakdown");
        assert_eq!(b.iter_ms.len(), iterations);
    }

    #[test]
    fn the_seed_changes_the_inputs() {
        for w in Workload::ALL {
            let mut a = prepare(w, &Scale::tiny(), 1, true).expect("set-up");
            let mut b = prepare(w, &Scale::tiny(), 2, true).expect("set-up");
            assert_ne!(
                a.run().expect("run").fingerprint,
                b.run().expect("run").fingerprint,
                "{}",
                w.name()
            );
        }
    }
}
