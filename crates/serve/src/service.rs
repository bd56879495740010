//! The deterministic multi-tenant chip service.
//!
//! [`Service`] multiplexes tenant sessions over a fleet of
//! [`ftt_tile::TiledChip`] nodes, driven entirely by a logical clock:
//! [`Service::tick`] advances the whole deployment by one step, and no
//! code path reads wall time. Determinism invariants:
//!
//! - All cross-tenant ordering is either fixed (node index, tenant
//!   registration order) or drawn from a seeded [`rand::StdRng`]
//!   (per-node batch service order), so a `(config, submit sequence)`
//!   pair pins every event.
//! - Obs events are emitted only from this sequential spine; the
//!   parallel substrate below ([`ftt_tile::TiledMapping::mvm_batch`],
//!   campaign fan-out) is bit-identical at any `RRAM_FTT_THREADS`.
//! - Migration snapshots use the versioned [`ftt_snapshot`] byte format,
//!   so a mid-migration kill can be completed later from the retained
//!   bytes with a byte-identical result.
//!
//! One tick runs, in order: (1) complete migrations started on the
//! previous tick, (2) serve batched inference per node, (3) step every
//! training tenant one iteration, (4) start migrations for trainers
//! whose spare pool exhausted, (5) run lull-gated detection campaigns,
//! (6) refresh gauges.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use faultdet::detector::{DetectorConfig, OnlineFaultDetector, TestMode};
use ftt_core::flow::{transplant_params, FaultTolerantTrainer, TrainerState};
use ftt_tile::{ChipConfig, DetectionScheduler, TiledChip, TiledMapping};
use nn::data::Dataset;
use obs::{Event, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rram::spatial::{FaultInjection, SpatialDistribution};

use crate::config::ServiceConfig;
use crate::error::ServeError;
use crate::queue::{Admission, PendingRequest, ShedReason};
use crate::tenant::{TenantSpec, TrainingSpec};

/// Salt stream for fleet chip seeds (one per node index).
const NODE_CHIP_SALT: u64 = 0x5345_5256_4546;
/// Salt stream for tie-breaking RNG.
const TIE_SALT: u64 = 0x5345_5256_4554;
/// Multiplier for per-placement mapping salts.
const PLACEMENT_MULT: u64 = 0x9E37_79B9_7F4A_7C15;
/// Tiles tested per lull-gated campaign opportunity.
const TILES_PER_CAMPAIGN: usize = 4;
/// Admission-wait histogram bounds, in logical ticks.
const WAIT_BOUNDS: [u64; 6] = [0, 1, 2, 4, 8, 16];

/// Mapping-seed salt for a tenant placed on `node`: placements on
/// different nodes must build *different* private chips (a migration
/// moves software state onto fresh hardware, never onto a replica of
/// the faulty chip).
pub fn placement_salt(node: usize) -> u64 {
    (node as u64 + 1).wrapping_mul(PLACEMENT_MULT)
}

/// FNV-1a fingerprint of a trainer's software parameters (weights and
/// biases, layer order). This is the quantity a migration must preserve
/// exactly: hardware state is rebuilt, software state moves.
pub fn trainer_params_fingerprint(trainer: &mut FaultTolerantTrainer) -> u64 {
    params_fingerprint(&trainer.export_state())
}

fn params_fingerprint(state: &TrainerState) -> u64 {
    let mut bytes = Vec::new();
    for p in &state.params {
        bytes.extend_from_slice(&(p.layer_index as u64).to_le_bytes());
        for w in &p.weights {
            bytes.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        if let Some(bias) = &p.bias {
            for b in bias {
                bytes.extend_from_slice(&b.to_bits().to_le_bytes());
            }
        }
    }
    ftt_snapshot::fnv1a64(&bytes)
}

/// Rebuild a training tenant from migration-snapshot bytes on a fresh
/// chip.
///
/// The snapshot's *software* parameters are transplanted onto the spec's
/// template network ([`transplant_params`], which rejects a capture whose
/// layers, weight counts or biases do not fit it); the hardware (chip,
/// tile seeds, fault map) is built anew from
/// `spec.mapping_config(tile_size, salt)` and reprogrammed from those
/// parameters. (`FaultTolerantTrainer::restore_state` is the wrong
/// tool here: it rebuilds the *same* chip, and a migration exists
/// precisely because that chip ran out of spares.) The iteration counter
/// and curve restart — detection warmup re-applies on the new hardware.
///
/// This is a pure function of `(bytes, spec, tile_size, salt)` plus the
/// recorder, which is exactly what makes mid-migration crash recovery
/// work: completing a migration later, in a fresh process, from retained
/// bytes produces the same trainer the uninterrupted path builds.
pub fn rebuild_trainer_from_snapshot(
    bytes: &[u8],
    spec: &TrainingSpec,
    tile_size: usize,
    salt: u64,
    recorder: &Recorder,
) -> Result<FaultTolerantTrainer, ServeError> {
    let state = ftt_snapshot::decode(bytes)?;
    let mut net = spec.network();
    transplant_params(&mut net, &state.params)?;
    let mapping = spec.mapping_config(tile_size, salt);
    let flow = spec.flow_config();
    Ok(FaultTolerantTrainer::with_recorder(
        net,
        mapping,
        flow,
        recorder.clone(),
    )?)
}

/// One fleet chip plus its scheduling and placement state.
struct ChipNode {
    chip: TiledChip,
    scheduler: DetectionScheduler,
    /// Tiles debited by tenant quotas (placement accounting).
    tiles_used: usize,
    /// Placement bound from the node config.
    tile_budget: usize,
    /// Tiles that carried inference traffic this tick.
    busy_tiles: BTreeSet<usize>,
    /// Campaign-scheduling opportunities so far.
    opportunities: u64,
    /// Opportunities on which >= 1 tile actually ran a campaign.
    campaigns: u64,
}

/// Tenant execution state.
enum Backend {
    Inference {
        mapping: TiledMapping,
        queue: VecDeque<PendingRequest>,
        next_ticket: u64,
        /// Highest admission ticket that has completed, if any.
        last_completed_ticket: Option<u64>,
        /// Running FNV-1a fold of every output the tenant has received.
        fingerprint: u64,
    },
    Training {
        // Boxed: the trainer dwarfs the inference variant, and backends
        // live together in one Vec.
        trainer: Box<FaultTolerantTrainer>,
        data: Dataset,
        /// Set while a snapshot is in flight; the tenant is frozen.
        migrating: bool,
        /// Each tenant migrates at most once.
        migrated: bool,
    },
}

struct Tenant {
    spec: TenantSpec,
    /// Home node index (placement/quota accounting).
    node: usize,
}

/// An in-flight migration: the snapshot was taken and the destination
/// reserved on tick `started_tick`; the rebuild lands on the next tick.
#[derive(Debug, Clone)]
pub struct MigrationTicket {
    /// Index of the migrating tenant.
    pub tenant: usize,
    /// Node the tenant is leaving.
    pub from_node: usize,
    /// Node the tenant will land on.
    pub to_node: usize,
    /// Encoded [`ftt_snapshot`] trainer state.
    pub bytes: Vec<u8>,
    /// Tick the snapshot was taken on.
    pub started_tick: u64,
}

/// The deterministic multi-tenant chip service. See the module docs for
/// the tick pipeline and determinism invariants.
pub struct Service {
    config: ServiceConfig,
    recorder: Recorder,
    nodes: Vec<ChipNode>,
    tenants: Vec<Tenant>,
    backends: Vec<Backend>,
    names: BTreeMap<String, usize>,
    detector: OnlineFaultDetector,
    /// Seeded tie-breaker for per-node batch service order.
    rng: StdRng,
    tick: u64,
    in_flight: Vec<MigrationTicket>,
    sheds: u64,
    lull_campaigns: u64,
    migrations: u64,
}

impl Service {
    /// Build the fleet from a validated configuration.
    pub fn new(config: ServiceConfig) -> Result<Self, ServeError> {
        config.validate().map_err(ServeError::InvalidConfig)?;
        let recorder = Recorder::deterministic();
        let mut detector_cfg = DetectorConfig::new(config.detector_test_size)
            .map_err(|e| ServeError::InvalidConfig(e.to_string()))?;
        detector_cfg.mode = TestMode::AllCells;
        let detector = OnlineFaultDetector::new(detector_cfg);
        let mut nodes = Vec::with_capacity(config.nodes.len());
        for (i, nc) in config.nodes.iter().enumerate() {
            let mut chip_cfg = ChipConfig::new(
                nc.tile_size,
                nc.levels,
                config.seed ^ (NODE_CHIP_SALT.wrapping_add(i as u64)),
            )
            .with_spare_tiles(nc.spare_tiles);
            if nc.fault_fraction > 0.0 {
                let injection =
                    FaultInjection::new(SpatialDistribution::Uniform, nc.fault_fraction)
                        .map_err(|e| ServeError::InvalidConfig(e.to_string()))?;
                chip_cfg = chip_cfg.with_injection(injection);
            }
            let mut chip = TiledChip::new(chip_cfg)?;
            chip.attach_recorder(&recorder);
            let scheduler = DetectionScheduler::new(TILES_PER_CAMPAIGN, config.lull)?;
            nodes.push(ChipNode {
                chip,
                scheduler,
                tiles_used: 0,
                tile_budget: nc.tile_budget,
                busy_tiles: BTreeSet::new(),
                opportunities: 0,
                campaigns: 0,
            });
        }
        let rng = StdRng::seed_from_u64(config.seed ^ TIE_SALT);
        Ok(Self {
            config,
            recorder,
            nodes,
            tenants: Vec::new(),
            backends: Vec::new(),
            names: BTreeMap::new(),
            detector,
            rng,
            tick: 0,
            in_flight: Vec::new(),
            sheds: 0,
            lull_campaigns: 0,
            migrations: 0,
        })
    }

    /// The shared telemetry recorder (scrape source, trace sink host).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Logical ticks run so far.
    pub fn tick_count(&self) -> u64 {
        self.tick
    }

    /// Requests shed (hard or soft) so far.
    pub fn sheds(&self) -> u64 {
        self.sheds
    }

    /// Lull-gated campaign passes run so far (across all nodes).
    pub fn lull_campaigns(&self) -> u64 {
        self.lull_campaigns
    }

    /// Tenant migrations completed so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Home node of a tenant, if registered.
    pub fn tenant_node(&self, name: &str) -> Option<usize> {
        self.names.get(name).map(|&t| self.tenants[t].node)
    }

    /// Running output fingerprint of an inference tenant.
    pub fn output_fingerprint(&self, name: &str) -> Option<u64> {
        let &t = self.names.get(name)?;
        match &self.backends[t] {
            Backend::Inference { fingerprint, .. } => Some(*fingerprint),
            Backend::Training { .. } => None,
        }
    }

    /// Current queue depth of an inference tenant.
    pub fn queue_depth(&self, name: &str) -> Option<usize> {
        let &t = self.names.get(name)?;
        match &self.backends[t] {
            Backend::Inference { queue, .. } => Some(queue.len()),
            Backend::Training { .. } => None,
        }
    }

    /// Highest admission ticket an inference tenant has completed, if
    /// any request has completed yet. Tickets are handed out in arrival
    /// order and batches preserve queue order, so this is the client's
    /// progress watermark.
    pub fn last_completed_ticket(&self, name: &str) -> Option<u64> {
        let &t = self.names.get(name)?;
        match &self.backends[t] {
            Backend::Inference {
                last_completed_ticket,
                ..
            } => *last_completed_ticket,
            Backend::Training { .. } => None,
        }
    }

    /// Software-parameter fingerprint of a training tenant (the quantity
    /// a migration preserves exactly).
    pub fn tenant_params_fingerprint(&mut self, name: &str) -> Option<u64> {
        let &t = self.names.get(name)?;
        match &mut self.backends[t] {
            Backend::Training { trainer, .. } => Some(trainer_params_fingerprint(trainer)),
            Backend::Inference { .. } => None,
        }
    }

    /// `(spares_remaining, spares_attached)` of a training tenant's
    /// private chip.
    pub fn tenant_spares(&self, name: &str) -> Option<(usize, u64)> {
        let &t = self.names.get(name)?;
        match &self.backends[t] {
            Backend::Training { trainer, .. } => {
                let chip = trainer.mapped().chip();
                Some((chip.spares_remaining(), chip.spares_attached()))
            }
            Backend::Inference { .. } => None,
        }
    }

    /// The migration currently in flight, if any (snapshot taken, rebuild
    /// pending). Chaos tests use this to simulate a mid-migration kill:
    /// the retained bytes plus [`rebuild_trainer_from_snapshot`] must
    /// complete the move in a fresh context.
    pub fn in_flight_migration(&self) -> Option<&MigrationTicket> {
        self.in_flight.first()
    }

    /// The training spec of a tenant, if it is a training tenant.
    pub fn training_spec(&self, name: &str) -> Option<&TrainingSpec> {
        let &t = self.names.get(name)?;
        match &self.tenants[t].spec {
            TenantSpec::Training(s) => Some(s),
            TenantSpec::Inference(_) => None,
        }
    }

    /// Tile size of a node's chip (needed to rebuild a migrated tenant).
    pub fn node_tile_size(&self, node: usize) -> Option<usize> {
        self.config.nodes.get(node).map(|n| n.tile_size)
    }

    /// Place a tenant: pick the node with the most free placement budget
    /// (ties to the lowest index), excluding `exclude`.
    fn place(&self, quota: usize, exclude: Option<usize>) -> Option<usize> {
        let mut best: Option<(usize, usize)> = None;
        for (i, node) in self.nodes.iter().enumerate() {
            if Some(i) == exclude {
                continue;
            }
            let free = node.tile_budget.saturating_sub(node.tiles_used);
            if free >= quota && best.is_none_or(|(_, bf)| free > bf) {
                best = Some((i, free));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Register a tenant and place it on the fleet.
    pub fn register(&mut self, spec: TenantSpec) -> Result<usize, ServeError> {
        let name = spec.name().to_string();
        if self.names.contains_key(&name) {
            return Err(ServeError::DuplicateTenant(name));
        }
        let quota = spec.tile_quota();
        if quota == 0 {
            return Err(ServeError::InvalidConfig(format!(
                "tenant {name:?}: tile_quota must be >= 1"
            )));
        }
        let node = self
            .place(quota, None)
            .ok_or_else(|| ServeError::NoCapacity {
                tenant: name.clone(),
                tiles_needed: quota,
            })?;
        let backend = match &spec {
            TenantSpec::Inference(s) => {
                let ts = self.config.nodes[node].tile_size;
                let tiles_needed = s.rows.div_ceil(ts) * s.cols.div_ceil(ts);
                if tiles_needed > quota {
                    return Err(ServeError::InvalidConfig(format!(
                        "tenant {name:?}: a {}x{} plane needs {tiles_needed} tiles, quota is {quota}",
                        s.rows, s.cols
                    )));
                }
                let chip = &mut self.nodes[node].chip;
                let mapping = TiledMapping::allocate(chip, s.rows, s.cols)?;
                let mut wrng = StdRng::seed_from_u64(s.weight_seed);
                let targets: Vec<f64> = (0..s.rows * s.cols)
                    .map(|_| wrng.gen_range(0.0..1.0))
                    .collect();
                mapping.program(chip, &targets)?;
                Backend::Inference {
                    mapping,
                    queue: VecDeque::new(),
                    next_ticket: 0,
                    last_completed_ticket: None,
                    fingerprint: ftt_snapshot::fnv1a64(&[]),
                }
            }
            TenantSpec::Training(s) => {
                let ts = self.config.nodes[node].tile_size;
                let trainer = FaultTolerantTrainer::with_recorder(
                    s.network(),
                    s.mapping_config(ts, placement_salt(node)),
                    s.flow_config(),
                    self.recorder.clone(),
                )?;
                Backend::Training {
                    trainer: Box::new(trainer),
                    data: s.dataset(),
                    migrating: false,
                    migrated: false,
                }
            }
        };
        self.nodes[node].tiles_used += quota;
        let idx = self.tenants.len();
        self.tenants.push(Tenant { spec, node });
        self.backends.push(backend);
        self.names.insert(name, idx);
        Ok(idx)
    }

    /// Record a shed (hard or soft) in the obs stream.
    fn record_shed(&mut self, tenant: &str, reason: ShedReason, queue_depth: usize) {
        self.sheds += 1;
        self.recorder
            .counter_labeled(
                "serve_requests_shed_total",
                &[("tenant", tenant), ("reason", reason.as_str())],
            )
            .inc();
        self.recorder.emit(Event::ServeShed {
            tenant: tenant.to_string(),
            reason: reason.as_str().to_string(),
            queue_depth: queue_depth as u64,
        });
    }

    /// Submit one inference request. Never fails: every outcome is a
    /// typed [`Admission`], and shed traffic is counted, not errored.
    pub fn submit(&mut self, tenant: &str, input: Vec<f32>) -> Admission {
        let Some(&t) = self.names.get(tenant) else {
            self.record_shed(tenant, ShedReason::UnknownTenant, 0);
            return Admission::Shed {
                reason: ShedReason::UnknownTenant,
                queue_depth: 0,
            };
        };
        let rows = match &self.tenants[t].spec {
            TenantSpec::Inference(s) => Some(s.rows),
            TenantSpec::Training(_) => None,
        };
        let depth = match &self.backends[t] {
            Backend::Inference { queue, .. } => queue.len(),
            Backend::Training { .. } => 0,
        };
        let Some(rows) = rows else {
            self.record_shed(tenant, ShedReason::NotInference, 0);
            return Admission::Shed {
                reason: ShedReason::NotInference,
                queue_depth: 0,
            };
        };
        if input.len() != rows {
            self.record_shed(tenant, ShedReason::BadRequest, depth);
            return Admission::Shed {
                reason: ShedReason::BadRequest,
                queue_depth: depth,
            };
        }
        if depth >= self.config.queue_capacity {
            self.record_shed(tenant, ShedReason::QueueFull, depth);
            return Admission::Shed {
                reason: ShedReason::QueueFull,
                queue_depth: depth,
            };
        }
        if depth >= self.config.queue_high_water {
            self.record_shed(tenant, ShedReason::Busy, depth);
            return Admission::Busy { queue_depth: depth };
        }
        let arrival_tick = self.tick;
        if let Backend::Inference {
            queue, next_ticket, ..
        } = &mut self.backends[t]
        {
            let ticket = *next_ticket;
            *next_ticket += 1;
            queue.push_back(PendingRequest {
                ticket,
                arrival_tick,
                input,
            });
            self.recorder
                .counter_labeled("serve_requests_admitted_total", &[("tenant", tenant)])
                .inc();
            return Admission::Admitted { ticket };
        }
        // Defensive: the spec/backend kinds were matched above.
        self.record_shed(tenant, ShedReason::NotInference, depth);
        Admission::Shed {
            reason: ShedReason::NotInference,
            queue_depth: depth,
        }
    }

    /// Advance the whole deployment by one logical tick.
    pub fn tick(&mut self) -> Result<(), ServeError> {
        self.tick += 1;
        self.recorder.set_iteration(self.tick);
        self.complete_migrations()?;
        self.serve_inference()?;
        self.step_training()?;
        self.start_migrations();
        self.run_detection();
        self.update_gauges();
        Ok(())
    }

    /// Run ticks until every inference queue is empty (graceful drain),
    /// bounded by `max_ticks`. Returns the ticks actually run.
    pub fn drain(&mut self, max_ticks: u64) -> Result<u64, ServeError> {
        let mut ran = 0;
        while ran < max_ticks {
            let idle = self.backends.iter().all(|b| match b {
                Backend::Inference { queue, .. } => queue.is_empty(),
                Backend::Training { .. } => true,
            });
            if idle {
                break;
            }
            self.tick()?;
            ran += 1;
        }
        Ok(ran)
    }

    /// Serve batched inference on every node, tenants in seeded-shuffled
    /// order per node.
    fn serve_inference(&mut self) -> Result<(), ServeError> {
        let max_batch = self.config.max_batch;
        let tick = self.tick;
        for node_idx in 0..self.nodes.len() {
            let mut order: Vec<usize> = (0..self.tenants.len())
                .filter(|&t| {
                    self.tenants[t].node == node_idx
                        && match &self.backends[t] {
                            Backend::Inference { queue, .. } => !queue.is_empty(),
                            Backend::Training { .. } => false,
                        }
                })
                .collect();
            // Seeded Fisher–Yates: the service order within a node is a
            // tie-break, not a fairness policy, so it comes from the
            // service RNG stream (deterministic per seed + history).
            for i in (1..order.len()).rev() {
                let j = self.rng.gen_range(0..i + 1);
                order.swap(i, j);
            }
            for t in order {
                let Self {
                    nodes,
                    tenants,
                    backends,
                    recorder,
                    ..
                } = self;
                let node = &mut nodes[node_idx];
                let name = tenants[t].spec.name().to_string();
                let Backend::Inference {
                    mapping,
                    queue,
                    last_completed_ticket,
                    fingerprint,
                    ..
                } = &mut backends[t]
                else {
                    continue;
                };
                let batch_n = queue.len().min(max_batch);
                let mut inputs = Vec::new();
                let mut waits = Vec::with_capacity(batch_n);
                while waits.len() < batch_n {
                    let Some(req) = queue.pop_front() else { break };
                    inputs.extend_from_slice(&req.input);
                    waits.push(tick.saturating_sub(req.arrival_tick));
                    *last_completed_ticket = Some(req.ticket);
                }
                let batch_n = waits.len();
                if batch_n == 0 {
                    continue;
                }
                let out = mapping.mvm_batch(&node.chip, &inputs, batch_n)?;
                let mut bytes = Vec::with_capacity(8 + out.len() * 4);
                bytes.extend_from_slice(&fingerprint.to_le_bytes());
                for v in &out {
                    bytes.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                *fingerprint = ftt_snapshot::fnv1a64(&bytes);
                node.busy_tiles.extend(mapping.tile_ids().iter().copied());
                let wait_histogram = recorder
                    .registry()
                    .histogram_with_bounds("serve_admission_wait_ticks", &WAIT_BOUNDS);
                for w in waits {
                    wait_histogram.observe(w);
                }
                recorder
                    .counter_labeled(
                        "serve_requests_completed_total",
                        &[("tenant", name.as_str())],
                    )
                    .add(batch_n as u64);
                let occupancy = batch_n as f64 / max_batch as f64;
                recorder
                    .gauge_labeled("serve_batch_occupancy", &[("tenant", name.as_str())])
                    .set(occupancy);
                recorder.emit(Event::ServeBatchExecuted {
                    chip: node_idx as u64,
                    tenant: name,
                    requests: batch_n as u64,
                    occupancy,
                });
            }
        }
        Ok(())
    }

    /// Step every (non-migrating) training tenant one iteration.
    fn step_training(&mut self) -> Result<(), ServeError> {
        for backend in &mut self.backends {
            if let Backend::Training {
                trainer,
                data,
                migrating: false,
                ..
            } = backend
            {
                trainer.train(data, 1)?;
            }
        }
        Ok(())
    }

    /// Snapshot trainers whose spare pool exhausted and reserve them a
    /// destination node; the rebuild lands next tick.
    fn start_migrations(&mut self) {
        let exhausted: Vec<usize> = (0..self.tenants.len())
            .filter(|&t| match &self.backends[t] {
                Backend::Training {
                    trainer,
                    migrating: false,
                    migrated: false,
                    ..
                } => {
                    let chip = trainer.mapped().chip();
                    // Only a pool that was *used up* triggers a move: a
                    // tenant configured with zero spares opted out of
                    // sparing entirely.
                    chip.spares_remaining() == 0 && chip.spares_attached() > 0
                }
                _ => false,
            })
            .collect();
        for t in exhausted {
            let quota = self.tenants[t].spec.tile_quota();
            let from = self.tenants[t].node;
            let Some(to) = self.place(quota, Some(from)) else {
                continue; // no capacity anywhere else; stay put
            };
            let Backend::Training {
                trainer, migrating, ..
            } = &mut self.backends[t]
            else {
                continue;
            };
            let bytes = ftt_snapshot::encode(&trainer.export_state());
            *migrating = true;
            self.nodes[from].tiles_used = self.nodes[from].tiles_used.saturating_sub(quota);
            self.nodes[to].tiles_used += quota;
            let name = self.tenants[t].spec.name().to_string();
            self.recorder.emit(Event::ServeMigrationStart {
                tenant: name,
                from_chip: from as u64,
                to_chip: to as u64,
                snapshot_bytes: bytes.len() as u64,
            });
            self.in_flight.push(MigrationTicket {
                tenant: t,
                from_node: from,
                to_node: to,
                bytes,
                started_tick: self.tick,
            });
        }
    }

    /// Finish migrations whose snapshot was taken on an earlier tick.
    fn complete_migrations(&mut self) -> Result<(), ServeError> {
        let due: Vec<MigrationTicket> = {
            let tick = self.tick;
            let (ready, waiting): (Vec<MigrationTicket>, Vec<MigrationTicket>) =
                std::mem::take(&mut self.in_flight)
                    .into_iter()
                    .partition(|m| m.started_tick < tick);
            self.in_flight = waiting;
            ready
        };
        for ticket in due {
            let t = ticket.tenant;
            let TenantSpec::Training(spec) = self.tenants[t].spec.clone() else {
                continue;
            };
            let ts = self.config.nodes[ticket.to_node].tile_size;
            let rebuilt = rebuild_trainer_from_snapshot(
                &ticket.bytes,
                &spec,
                ts,
                placement_salt(ticket.to_node),
                &self.recorder,
            )?;
            let Backend::Training {
                trainer,
                migrating,
                migrated,
                ..
            } = &mut self.backends[t]
            else {
                continue;
            };
            **trainer = rebuilt;
            *migrating = false;
            *migrated = true;
            self.tenants[t].node = ticket.to_node;
            self.migrations += 1;
            self.recorder.counter("serve_migrations_total").inc();
            self.recorder.emit(Event::ServeMigrationEnd {
                tenant: spec.name.clone(),
                to_chip: ticket.to_node as u64,
            });
        }
        Ok(())
    }

    /// Feed traffic pressure into each node's scheduler and run
    /// lull-gated campaigns on campaign-interval ticks.
    fn run_detection(&mut self) {
        let chip_labels: Vec<String> = (0..self.nodes.len()).map(|i| i.to_string()).collect();
        for (node_idx, node) in self.nodes.iter_mut().enumerate() {
            for id in node.chip.active_ids() {
                node.scheduler
                    .note_traffic(id, node.busy_tiles.contains(&id));
            }
            if self.tick.is_multiple_of(self.config.campaign_interval) {
                node.opportunities += 1;
                let ids = node.scheduler.select(&node.chip);
                if !ids.is_empty() {
                    let stats = node.chip.run_campaigns(&self.detector, &ids);
                    node.campaigns += 1;
                    self.lull_campaigns += 1;
                    let chip_label = chip_labels[node_idx].as_str();
                    self.recorder
                        .counter_labeled("serve_campaign_tiles_total", &[("chip", chip_label)])
                        .add(ids.len() as u64);
                    self.recorder
                        .counter_labeled("serve_campaign_cycles_total", &[("chip", chip_label)])
                        .add(stats.cycles);
                    self.recorder.emit(Event::ServeLullCampaign {
                        chip: node_idx as u64,
                        tiles: ids.len() as u64,
                        cycles: stats.cycles,
                    });
                }
            }
            if node.opportunities > 0 {
                self.recorder
                    .gauge_labeled(
                        "serve_lull_utilization",
                        &[("chip", chip_labels[node_idx].as_str())],
                    )
                    .set(node.campaigns as f64 / node.opportunities as f64);
            }
            node.busy_tiles.clear();
        }
    }

    /// Refresh per-tenant gauges at the end of the tick.
    fn update_gauges(&mut self) {
        for t in 0..self.tenants.len() {
            let name = self.tenants[t].spec.name();
            if let Backend::Inference { queue, .. } = &self.backends[t] {
                self.recorder
                    .gauge_labeled("serve_queue_depth", &[("tenant", name)])
                    .set(queue.len() as f64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipNodeConfig;
    use crate::tenant::InferenceSpec;
    use ftt_core::error::FttError;
    use ftt_tile::LullConfig;

    fn small_config() -> ServiceConfig {
        ServiceConfig {
            seed: 11,
            nodes: vec![ChipNodeConfig::new(8, 8, 24), ChipNodeConfig::new(8, 8, 24)],
            queue_capacity: 4,
            queue_high_water: 3,
            max_batch: 2,
            campaign_interval: 2,
            detector_test_size: 4,
            lull: LullConfig {
                idle_threshold: 1,
                max_defer: 2,
            },
        }
    }

    fn infer_spec(name: &str) -> TenantSpec {
        TenantSpec::Inference(InferenceSpec {
            name: name.into(),
            rows: 12,
            cols: 6,
            weight_seed: 5,
            tile_quota: 2,
        })
    }

    #[test]
    fn registration_places_and_debits_budget() {
        let mut svc = Service::new(small_config()).expect("service");
        svc.register(infer_spec("a")).expect("register");
        // Both nodes start with equal free budget; ties go to node 0.
        assert_eq!(svc.tenant_node("a"), Some(0));
        // The next tenant lands on the now-freer node 1.
        svc.register(infer_spec("b")).expect("register");
        assert_eq!(svc.tenant_node("b"), Some(1));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut svc = Service::new(small_config()).expect("service");
        svc.register(infer_spec("a")).expect("register");
        assert!(matches!(
            svc.register(infer_spec("a")),
            Err(ServeError::DuplicateTenant(_))
        ));
    }

    #[test]
    fn admission_escalates_busy_then_shed() {
        let mut svc = Service::new(small_config()).expect("service");
        svc.register(infer_spec("a")).expect("register");
        let input = || vec![0.5f32; 12];
        // capacity 4, high water 3: three admits, then Busy, then Busy
        // again (not enqueued, depth stays 3).
        assert!(svc.submit("a", input()).is_admitted());
        assert!(svc.submit("a", input()).is_admitted());
        assert!(svc.submit("a", input()).is_admitted());
        assert!(matches!(
            svc.submit("a", input()),
            Admission::Busy { queue_depth: 3 }
        ));
        assert!(matches!(
            svc.submit("a", input()),
            Admission::Busy { queue_depth: 3 }
        ));
        assert_eq!(svc.queue_depth("a"), Some(3));
        assert_eq!(svc.sheds(), 2);
    }

    #[test]
    fn unknown_and_malformed_requests_are_typed_sheds() {
        let mut svc = Service::new(small_config()).expect("service");
        svc.register(infer_spec("a")).expect("register");
        assert!(matches!(
            svc.submit("ghost", vec![0.0; 12]),
            Admission::Shed {
                reason: ShedReason::UnknownTenant,
                ..
            }
        ));
        assert!(matches!(
            svc.submit("a", vec![0.0; 5]),
            Admission::Shed {
                reason: ShedReason::BadRequest,
                ..
            }
        ));
    }

    #[test]
    fn ticks_serve_queued_requests_in_bounded_batches() {
        let mut svc = Service::new(small_config()).expect("service");
        svc.register(infer_spec("a")).expect("register");
        for _ in 0..3 {
            assert!(svc.submit("a", vec![0.25; 12]).is_admitted());
        }
        svc.tick().expect("tick");
        // max_batch 2: one batch served, one request left.
        assert_eq!(svc.queue_depth("a"), Some(1));
        svc.tick().expect("tick");
        assert_eq!(svc.queue_depth("a"), Some(0));
        assert_ne!(
            svc.output_fingerprint("a"),
            Some(ftt_snapshot::fnv1a64(&[]))
        );
    }

    #[test]
    fn drain_stops_when_queues_are_empty() {
        let mut svc = Service::new(small_config()).expect("service");
        svc.register(infer_spec("a")).expect("register");
        for _ in 0..3 {
            svc.submit("a", vec![0.25; 12]);
        }
        let ran = svc.drain(10).expect("drain");
        assert_eq!(ran, 2);
        assert_eq!(svc.queue_depth("a"), Some(0));
    }

    #[test]
    fn same_seed_same_fingerprint_across_runs() {
        let run = || {
            let mut svc = Service::new(small_config()).expect("service");
            svc.register(infer_spec("a")).expect("register");
            let mut wl = crate::workload::WorkloadGen::new(
                3,
                crate::workload::WorkloadSpec {
                    base_rate: 2,
                    lull_start: 3,
                    lull_end: 5,
                    burst_tick: None,
                    burst_size: 0,
                },
            );
            for tick in 0..8u64 {
                for input in wl.requests_for_tick(tick, 12) {
                    svc.submit("a", input);
                }
                svc.tick().expect("tick");
            }
            (
                svc.output_fingerprint("a"),
                svc.recorder().render_prometheus(),
            )
        };
        assert_eq!(run(), run());
    }

    /// A migration whose snapshot no longer decodes: `tick` returns the
    /// typed error, and `migrating` stays set, so the tenant takes no
    /// further training step and no second migration starts for it.
    #[test]
    fn failed_migration_freezes_the_tenant() {
        let mut svc = Service::new(ServiceConfig {
            nodes: vec![ChipNodeConfig::new(8, 8, 16), ChipNodeConfig::new(8, 8, 16)],
            queue_capacity: 2,
            queue_high_water: 1,
            campaign_interval: 4,
            lull: LullConfig {
                idle_threshold: 2,
                max_defer: 3,
            },
            ..small_config()
        })
        .expect("service");
        svc.register(TenantSpec::Training(TrainingSpec {
            name: "mig".into(),
            inputs: 36,
            hidden: 10,
            classes: 3,
            train_n: 24,
            test_n: 6,
            seed: 0x4D,
            tile_quota: 12,
            fault_fraction: 0.3,
            spare_tiles: 1,
            retire_fault_density: 0.02,
            detection_interval: 4,
            detection_warmup: 2,
        }))
        .expect("register");
        let started = (1..=40)
            .find(|_| {
                svc.tick().expect("tick");
                !svc.in_flight.is_empty()
            })
            .expect("a migration starts within 40 ticks");
        let iteration = |svc: &Service| match &svc.backends[0] {
            Backend::Training { trainer, .. } => trainer.iteration(),
            Backend::Inference { .. } => unreachable!("tenant 0 trains"),
        };
        let frozen_at = iteration(&svc);
        assert_eq!(frozen_at, started, "one training step per tick until then");
        svc.in_flight[0].bytes[0] ^= 0xFF;
        assert!(matches!(svc.tick(), Err(ServeError::Snapshot(_))));
        for _ in 0..8 {
            svc.tick().expect("later ticks run");
        }
        assert_eq!(iteration(&svc), frozen_at, "a frozen tenant must not train");
        assert!(svc.in_flight.is_empty(), "no second migration may start");
        assert_eq!(svc.migrations(), 0);
        assert!(matches!(
            svc.backends[0],
            Backend::Training {
                migrating: true,
                migrated: false,
                ..
            }
        ));
    }

    #[test]
    fn rebuild_rejects_a_snapshot_that_does_not_fit_the_template() {
        let spec = TrainingSpec {
            name: "t".into(),
            inputs: 16,
            hidden: 8,
            classes: 4,
            train_n: 16,
            test_n: 8,
            seed: 3,
            tile_quota: 1,
            fault_fraction: 0.0,
            spare_tiles: 1,
            retire_fault_density: 1.0,
            detection_interval: 5,
            detection_warmup: 5,
        };
        let recorder = Recorder::deterministic();
        let mut trainer = FaultTolerantTrainer::with_recorder(
            spec.network(),
            spec.mapping_config(8, 1),
            spec.flow_config(),
            recorder.clone(),
        )
        .expect("trainer");
        let state = trainer.export_state();
        let rebuild = |state: &TrainerState| {
            rebuild_trainer_from_snapshot(&ftt_snapshot::encode(state), &spec, 8, 2, &recorder)
        };
        assert!(rebuild(&state).is_ok());

        // A capture missing the output layer would keep the template's
        // initial weights there; one missing a bias would keep the
        // template's bias. Both must be refused, as restore refuses them.
        let mut dropped_layer = state.clone();
        dropped_layer.params.pop();
        let mut dropped_bias = state.clone();
        assert!(dropped_bias.params[0].bias.is_some());
        dropped_bias.params[0].bias = None;
        for bad in [&dropped_layer, &dropped_bias] {
            assert!(matches!(
                rebuild(bad),
                Err(ServeError::Flow(FttError::InvalidConfig(_)))
            ));
        }
    }
}
