//! Service and chip-node configuration.
//!
//! A [`ServiceConfig`] describes the whole deployment: the fleet of chip
//! nodes inference tenants share, the admission bounds of every tenant
//! queue, the batching limit, and the lull policy detection campaigns are
//! scheduled under. Everything is validated up front in
//! [`crate::service::Service::new`] so a running service never has to
//! second-guess its own numbers.

use ftt_tile::LullConfig;

/// One chip in the shared inference fleet.
#[derive(Debug, Clone)]
pub struct ChipNodeConfig {
    /// Crossbar tile dimension (tiles are `tile_size × tile_size`).
    pub tile_size: usize,
    /// Programmable conductance levels per cell.
    pub levels: u16,
    /// Tiles the placement layer may hand out on this node. Inference
    /// mappings and training-tenant quotas are debited against this
    /// budget; it is a placement bound, not a hardware limit.
    pub tile_budget: usize,
    /// Cold spares attached to the node's chip.
    pub spare_tiles: usize,
    /// Fabrication-fault fraction injected into the node's tiles at
    /// build time (uniform spatial distribution).
    pub fault_fraction: f64,
}

impl ChipNodeConfig {
    /// A node with the given tile geometry and placement budget; no
    /// spares, no injected faults.
    pub fn new(tile_size: usize, levels: u16, tile_budget: usize) -> Self {
        Self {
            tile_size,
            levels,
            tile_budget,
            spare_tiles: 0,
            fault_fraction: 0.0,
        }
    }

    /// Attach cold spares to the node.
    pub fn with_spare_tiles(mut self, spares: usize) -> Self {
        self.spare_tiles = spares;
        self
    }
}

/// Whole-service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Master seed: chip seeds, tie-breaking, and workload derivation
    /// all derive from it, so one seed pins the whole run.
    pub seed: u64,
    /// The inference fleet, one entry per chip node.
    pub nodes: Vec<ChipNodeConfig>,
    /// Hard bound on each tenant queue; arrivals beyond it are shed.
    pub queue_capacity: usize,
    /// Soft bound: at or above this depth new arrivals get a typed
    /// `Busy` backpressure response instead of being enqueued.
    pub queue_high_water: usize,
    /// Most requests one tenant contributes to a single MVM pass.
    pub max_batch: usize,
    /// Logical ticks between detection-scheduling opportunities.
    pub campaign_interval: u64,
    /// §4 campaign test-vector count per tile.
    pub detector_test_size: usize,
    /// Lull policy gating which tiles a campaign may touch.
    pub lull: LullConfig,
}

impl ServiceConfig {
    /// Validate the configuration, returning the first inconsistency as
    /// a human-readable message.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("at least one chip node is required".into());
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.tile_size == 0 {
                return Err(format!("node {i}: tile_size must be >= 1"));
            }
            if node.levels < 2 {
                return Err(format!("node {i}: levels must be >= 2"));
            }
            if node.tile_budget == 0 {
                return Err(format!("node {i}: tile_budget must be >= 1"));
            }
            if !(0.0..=1.0).contains(&node.fault_fraction) {
                return Err(format!("node {i}: fault_fraction must be in [0, 1]"));
            }
        }
        if self.queue_capacity == 0 {
            return Err("queue_capacity must be >= 1".into());
        }
        if self.queue_high_water == 0 || self.queue_high_water > self.queue_capacity {
            return Err("queue_high_water must be in [1, queue_capacity]".into());
        }
        if self.max_batch == 0 {
            return Err("max_batch must be >= 1".into());
        }
        if self.campaign_interval == 0 {
            return Err("campaign_interval must be >= 1".into());
        }
        if self.detector_test_size == 0 {
            return Err("detector_test_size must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> ServiceConfig {
        ServiceConfig {
            seed: 7,
            nodes: vec![ChipNodeConfig::new(8, 8, 32)],
            queue_capacity: 4,
            queue_high_water: 3,
            max_batch: 2,
            campaign_interval: 4,
            detector_test_size: 4,
            lull: LullConfig {
                idle_threshold: 2,
                max_defer: 3,
            },
        }
    }

    #[test]
    fn valid_config_passes() {
        assert!(valid().validate().is_ok());
    }

    #[test]
    fn each_bound_is_enforced() {
        let mut c = valid();
        c.nodes.clear();
        assert!(c.validate().is_err());

        let mut c = valid();
        c.queue_capacity = 0;
        assert!(c.validate().is_err());

        let mut c = valid();
        c.queue_high_water = c.queue_capacity + 1;
        assert!(c.validate().is_err());

        let mut c = valid();
        c.max_batch = 0;
        assert!(c.validate().is_err());

        let mut c = valid();
        c.campaign_interval = 0;
        assert!(c.validate().is_err());

        let mut c = valid();
        c.nodes[0].fault_fraction = 1.5;
        assert!(c.validate().is_err());
    }
}
