//! Versioned, zero-dependency binary checkpoint/restore for complete
//! fault-tolerant training runs.
//!
//! A snapshot captures *everything* a [`FaultTolerantTrainer`] needs to
//! continue bit-identically in a fresh process: every crossbar cell (raw
//! level, analog residue, fault pin, endurance budget, write count), the
//! per-tile RNG streams, dirty journals, campaign outcomes, off-chip
//! reference stores, the spare pool, the mapped layers' placement and
//! software weights, the network parameters, the threshold ledgers, the
//! mini-batch stream position, the open skip burst, the training curve,
//! every registry counter and gauge, and the logical clock tail.
//! Configurations ([`MappingConfig`], [`FlowConfig`]) are code, not state
//! — [`resume`] is handed the same configs the run was built with.
//!
//! # Wire format
//!
//! ```text
//! magic    8 bytes  b"FTTSNAP\0"
//! version  u32 LE   FORMAT_VERSION
//! digest   u64 LE   FNV-1a 64 of the payload
//! payload  ...      TrainerState fields, in struct order
//! ```
//!
//! All integers are little-endian; floats are stored as raw IEEE-754 bits
//! (`to_bits`/`from_bits`, never converted); `usize` travels as `u64`;
//! lengths are `u64` prefixes; `Option` is a one-byte tag; enums are
//! one-byte discriminants. Any layout change bumps [`FORMAT_VERSION`] —
//! there is no in-place migration, old snapshots are rejected with
//! [`SnapshotError::UnsupportedVersion`].
//!
//! Decoding is structural; semantic validation (journal coherence,
//! pending-count popcount, tile-id reachability, …) happens in the domain
//! layers' `restore_state` constructors, surfaced as
//! [`SnapshotError::Invalid`]. Neither path panics on malformed input.
//!
//! What is deliberately *not* captured: span-duration histograms and wall
//! times (diagnostics, not behavior), cached conductance planes and group
//! aggregates (rebuilt exactly from cells/levels), tile health gauges
//! (derived), and the last campaign error of a tile (campaigns at healthy
//! iteration boundaries leave it clear).

use std::fmt;

use faultdet::reference::StoreState;
use ftt_core::error::FttError;
use ftt_core::flow::{NetParamState, TrainerState};
use ftt_core::mapping::{MappedLayerState, MappedState};
use ftt_core::report::CurvePoint;
use ftt_core::{FaultTolerantTrainer, FlowConfig, MappingConfig};
use ftt_tile::chip::{ChipState, DetectionState, TileSlotState};
use nn::data::BatchStreamState;
use nn::network::Network;
use nn::pruning::LayerMask;
use obs::{ClockState, Recorder};
use rram::crossbar::{CellState, CrossbarState};
use rram::fault::{FaultKind, FaultState};

/// Leading magic of every snapshot.
pub const MAGIC: [u8; 8] = *b"FTTSNAP\0";

/// Current wire-format version. Bumped on any layout change.
///
/// * v1 — PR 8's original layout.
/// * v2 — the strategy layer: a strategy-id string follows the iteration
///   counter (the one "config-like" datum captured as state, so restore
///   can refuse to continue a run under a different strategy).
pub const FORMAT_VERSION: u32 = 2;

/// Errors raised while decoding or resuming a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// The byte stream ended before the payload did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually left.
        available: usize,
    },
    /// The leading magic is not [`MAGIC`].
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The payload digest does not match the header.
    DigestMismatch {
        /// Digest stored in the header.
        stored: u64,
        /// Digest of the payload as received.
        computed: u64,
    },
    /// The payload is structurally malformed (bad tag, bad UTF-8, …).
    Malformed(String),
    /// The payload decoded but fails domain validation on restore.
    Invalid(FttError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Truncated { needed, available } => {
                write!(
                    f,
                    "snapshot truncated: needed {needed} bytes, {available} left"
                )
            }
            Self::BadMagic => write!(f, "not a snapshot (bad magic)"),
            Self::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            Self::DigestMismatch { stored, computed } => write!(
                f,
                "snapshot digest mismatch: header {stored:#018x}, payload {computed:#018x}"
            ),
            Self::Malformed(msg) => write!(f, "malformed snapshot: {msg}"),
            Self::Invalid(e) => write!(f, "snapshot fails domain validation: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<FttError> for SnapshotError {
    fn from(e: FttError) -> Self {
        Self::Invalid(e)
    }
}

/// FNV-1a 64-bit digest — the integrity check in the snapshot header.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- encoding ----------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn size(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn i8(&mut self, v: i8) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }
    fn str(&mut self, v: &str) {
        self.size(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
    fn opt<T>(&mut self, v: Option<&T>, mut put: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(inner) => {
                self.u8(1);
                put(self, inner);
            }
        }
    }
}

fn put_fault_kind(w: &mut Writer, k: FaultKind) {
    w.u8(match k {
        FaultKind::StuckAt0 => 0,
        FaultKind::StuckAt1 => 1,
    });
}

fn put_fault_state(w: &mut Writer, s: FaultState) {
    w.u8(match s {
        FaultState::Healthy => 0,
        FaultState::Stuck(FaultKind::StuckAt0) => 1,
        FaultState::Stuck(FaultKind::StuckAt1) => 2,
    });
}

fn put_crossbar(w: &mut Writer, x: &CrossbarState) {
    w.size(x.rows);
    w.size(x.cols);
    w.u16(x.levels);
    w.size(x.cells.len());
    for c in &x.cells {
        w.u16(c.level);
        w.f64(c.analog);
        put_fault_state(w, c.state);
        w.u64(c.endurance_left);
        w.u64(c.writes);
    }
    for lane in x.rng {
        w.u64(lane);
    }
    w.u64(x.write_pulses);
    w.u64(x.wear_faults);
    w.size(x.dirty.len());
    for &i in &x.dirty {
        w.size(i);
    }
}

fn put_detection(w: &mut Writer, d: &DetectionState) {
    w.size(d.faults.len());
    for &(r, c, kind) in &d.faults {
        w.size(r);
        w.size(c);
        put_fault_kind(w, kind);
    }
    w.u64(d.sa0_cycles);
    w.u64(d.sa1_cycles);
    w.u64(d.write_pulses);
    w.size(d.sa0_candidates);
    w.size(d.sa1_candidates);
    w.u64(d.untested_groups);
    w.u64(d.store_read_cells);
    w.u64(d.store_read_cycles);
}

fn put_store(w: &mut Writer, s: &StoreState) {
    w.size(s.rows);
    w.size(s.cols);
    w.u16(s.levels);
    w.size(s.stored.len());
    for &l in &s.stored {
        w.u16(l);
    }
    w.size(s.pending.len());
    for &p in &s.pending {
        w.bool(p);
    }
    w.size(s.pending_count);
}

fn put_chip(w: &mut Writer, chip: &ChipState) {
    w.size(chip.slots.len());
    for s in &chip.slots {
        w.size(s.id);
        put_crossbar(w, &s.xbar);
        w.bool(s.retired);
        w.opt(s.spare_origin.as_ref(), |w, &o| w.size(o));
        w.opt(s.last_detection.as_ref(), put_detection);
        w.opt(s.store.as_ref(), put_store);
    }
    w.u64(chip.tile_counter);
    w.size(chip.spares_remaining);
    w.u64(chip.spares_attached);
}

fn put_mapped(w: &mut Writer, m: &MappedState) {
    put_chip(w, &m.chip);
    w.size(m.layers.len());
    for l in &m.layers {
        w.size(l.weight_layer);
        w.size(l.layer_index);
        w.size(l.rows);
        w.size(l.cols);
        w.f64(l.w_max);
        w.size(l.signs.len());
        for &s in &l.signs {
            w.i8(s);
        }
        w.size(l.targets.len());
        for &t in &l.targets {
            w.f32(t);
        }
        for shards in [&l.tiles, &l.neg_tiles] {
            w.size(shards.len());
            for &(row0, col0, id) in shards.iter() {
                w.size(row0);
                w.size(col0);
                w.size(id);
            }
        }
    }
}

fn put_batch_stream(w: &mut Writer, b: &BatchStreamState) {
    w.size(b.batch);
    w.size(b.train_len);
    w.size(b.order.len());
    for &i in &b.order {
        w.size(i);
    }
    w.size(b.cursor);
    for lane in b.rng {
        w.u64(lane);
    }
}

/// Serializes a [`TrainerState`] into the versioned wire format.
pub fn encode(state: &TrainerState) -> Vec<u8> {
    let mut w = Writer::default();
    w.u64(state.iteration);
    w.str(&state.strategy_id);
    put_mapped(&mut w, &state.mapped);
    w.size(state.params.len());
    for p in &state.params {
        w.size(p.layer_index);
        w.size(p.weights.len());
        for &v in &p.weights {
            w.f32(v);
        }
        w.opt(p.bias.as_ref(), |w, b| {
            w.size(b.len());
            for &v in b.iter() {
                w.f32(v);
            }
        });
    }
    w.size(state.ledgers.len());
    for ledger in &state.ledgers {
        w.size(ledger.len());
        for &v in ledger {
            w.u32(v);
        }
    }
    w.size(state.curve.len());
    for p in &state.curve {
        w.u64(p.iteration);
        w.f64(p.test_accuracy);
        w.f64(p.faulty_fraction);
        w.u64(p.write_pulses);
    }
    w.opt(state.active_mask.as_ref(), |w, layers| {
        w.size(layers.len());
        for m in layers.iter() {
            w.size(m.layer_index);
            w.size(m.shape.0);
            w.size(m.shape.1);
            w.size(m.pruned.len());
            for &p in &m.pruned {
                w.bool(p);
            }
        }
    });
    w.opt(state.burst_start.as_ref(), |w, &v| w.u64(v));
    w.u64(state.burst_skipped);
    w.opt(state.batch_stream.as_ref(), put_batch_stream);
    w.size(state.counters.len());
    for (name, v) in &state.counters {
        w.str(name);
        w.u64(*v);
    }
    w.size(state.gauges.len());
    for (name, v) in &state.gauges {
        w.str(name);
        w.f64(*v);
    }
    w.u64(state.clock.iteration);
    w.u64(state.clock.write_pulses);
    w.u64(state.clock.seq);
    w.size(state.clock.kind_counts.len());
    for &c in &state.clock.kind_counts {
        w.u64(c);
    }

    let payload = w.buf;
    let mut out = Vec::with_capacity(MAGIC.len() + 12 + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&fnv1a64(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

// ---- decoding ----------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| SnapshotError::Malformed("length overflow".into()))?;
        let slice = self
            .buf
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated {
                needed: n,
                available: self.buf.len().saturating_sub(self.pos),
            })?;
        self.pos = end;
        Ok(slice)
    }
    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
    fn size(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?)
            .map_err(|_| SnapshotError::Malformed("size exceeds this platform's usize".into()))
    }
    /// A length prefix about to drive an allocation: bounded by the bytes
    /// actually left, so corrupt prefixes can't balloon memory.
    fn len(&mut self, min_elem: usize) -> Result<usize, SnapshotError> {
        let n = self.size()?;
        let bound = self.remaining() / min_elem.max(1);
        if n > bound {
            return Err(SnapshotError::Malformed(format!(
                "length {n} exceeds the {bound} elements the remaining bytes could hold"
            )));
        }
        Ok(n)
    }
    fn i8(&mut self) -> Result<i8, SnapshotError> {
        Ok(i8::from_le_bytes([self.take(1)?[0]]))
    }
    fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SnapshotError::Malformed(format!("bad bool tag {t}"))),
        }
    }
    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.len(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Malformed("string is not UTF-8".into()))
    }
    fn opt<T>(
        &mut self,
        mut get: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(get(self)?)),
            t => Err(SnapshotError::Malformed(format!("bad option tag {t}"))),
        }
    }
}

fn get_fault_kind(r: &mut Reader<'_>) -> Result<FaultKind, SnapshotError> {
    match r.u8()? {
        0 => Ok(FaultKind::StuckAt0),
        1 => Ok(FaultKind::StuckAt1),
        t => Err(SnapshotError::Malformed(format!("bad fault kind {t}"))),
    }
}

fn get_fault_state(r: &mut Reader<'_>) -> Result<FaultState, SnapshotError> {
    match r.u8()? {
        0 => Ok(FaultState::Healthy),
        1 => Ok(FaultState::Stuck(FaultKind::StuckAt0)),
        2 => Ok(FaultState::Stuck(FaultKind::StuckAt1)),
        t => Err(SnapshotError::Malformed(format!("bad fault state {t}"))),
    }
}

fn get_crossbar(r: &mut Reader<'_>) -> Result<CrossbarState, SnapshotError> {
    let rows = r.size()?;
    let cols = r.size()?;
    let levels = r.u16()?;
    let n = r.len(27)?; // 2 + 8 + 1 + 8 + 8 bytes per encoded cell
    let mut cells = Vec::with_capacity(n);
    for _ in 0..n {
        cells.push(CellState {
            level: r.u16()?,
            analog: r.f64()?,
            state: get_fault_state(r)?,
            endurance_left: r.u64()?,
            writes: r.u64()?,
        });
    }
    let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    let write_pulses = r.u64()?;
    let wear_faults = r.u64()?;
    let nd = r.len(8)?;
    let mut dirty = Vec::with_capacity(nd);
    for _ in 0..nd {
        dirty.push(r.size()?);
    }
    Ok(CrossbarState {
        rows,
        cols,
        levels,
        cells,
        rng,
        write_pulses,
        wear_faults,
        dirty,
    })
}

fn get_detection(r: &mut Reader<'_>) -> Result<DetectionState, SnapshotError> {
    let n = r.len(17)?;
    let mut faults = Vec::with_capacity(n);
    for _ in 0..n {
        faults.push((r.size()?, r.size()?, get_fault_kind(r)?));
    }
    Ok(DetectionState {
        faults,
        sa0_cycles: r.u64()?,
        sa1_cycles: r.u64()?,
        write_pulses: r.u64()?,
        sa0_candidates: r.size()?,
        sa1_candidates: r.size()?,
        untested_groups: r.u64()?,
        store_read_cells: r.u64()?,
        store_read_cycles: r.u64()?,
    })
}

fn get_store(r: &mut Reader<'_>) -> Result<StoreState, SnapshotError> {
    let rows = r.size()?;
    let cols = r.size()?;
    let levels = r.u16()?;
    let ns = r.len(2)?;
    let mut stored = Vec::with_capacity(ns);
    for _ in 0..ns {
        stored.push(r.u16()?);
    }
    let np = r.len(1)?;
    let mut pending = Vec::with_capacity(np);
    for _ in 0..np {
        pending.push(r.bool()?);
    }
    Ok(StoreState {
        rows,
        cols,
        levels,
        stored,
        pending,
        pending_count: r.size()?,
    })
}

fn get_chip(r: &mut Reader<'_>) -> Result<ChipState, SnapshotError> {
    let n = r.len(1)?;
    let mut slots = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.size()?;
        let xbar = get_crossbar(r)?;
        let retired = r.bool()?;
        let spare_origin = r.opt(|r| r.size())?;
        let last_detection = r.opt(get_detection)?;
        let store = r.opt(get_store)?;
        slots.push(TileSlotState {
            id,
            xbar,
            retired,
            spare_origin,
            last_detection,
            store,
        });
    }
    Ok(ChipState {
        slots,
        tile_counter: r.u64()?,
        spares_remaining: r.size()?,
        spares_attached: r.u64()?,
    })
}

fn get_mapped(r: &mut Reader<'_>) -> Result<MappedState, SnapshotError> {
    let chip = get_chip(r)?;
    let n = r.len(1)?;
    let mut layers = Vec::with_capacity(n);
    for _ in 0..n {
        let weight_layer = r.size()?;
        let layer_index = r.size()?;
        let rows = r.size()?;
        let cols = r.size()?;
        let w_max = r.f64()?;
        let nsigns = r.len(1)?;
        let mut signs = Vec::with_capacity(nsigns);
        for _ in 0..nsigns {
            signs.push(r.i8()?);
        }
        let nt = r.len(4)?;
        let mut targets = Vec::with_capacity(nt);
        for _ in 0..nt {
            targets.push(r.f32()?);
        }
        let mut grids: [Vec<(usize, usize, usize)>; 2] = [Vec::new(), Vec::new()];
        for grid in &mut grids {
            let ns = r.len(24)?;
            grid.reserve(ns);
            for _ in 0..ns {
                grid.push((r.size()?, r.size()?, r.size()?));
            }
        }
        let [tiles, neg_tiles] = grids;
        layers.push(MappedLayerState {
            weight_layer,
            layer_index,
            rows,
            cols,
            w_max,
            signs,
            targets,
            tiles,
            neg_tiles,
        });
    }
    Ok(MappedState { chip, layers })
}

fn get_batch_stream(r: &mut Reader<'_>) -> Result<BatchStreamState, SnapshotError> {
    let batch = r.size()?;
    let train_len = r.size()?;
    let n = r.len(8)?;
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        order.push(r.size()?);
    }
    let cursor = r.size()?;
    let rng = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
    Ok(BatchStreamState {
        batch,
        train_len,
        order,
        cursor,
        rng,
    })
}

/// Deserializes a [`TrainerState`] from the versioned wire format.
///
/// This is structural decoding only; use [`resume`] (or
/// [`FaultTolerantTrainer::restore_state`]) to also run the domain
/// layers' coherence validation.
///
/// # Errors
///
/// Every malformed input maps to a typed [`SnapshotError`]; this function
/// never panics.
pub fn decode(bytes: &[u8]) -> Result<TrainerState, SnapshotError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(MAGIC.len())? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = r.u32()?;
    if version != FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let stored = r.u64()?;
    let payload = &bytes[r.pos..];
    let computed = fnv1a64(payload);
    if stored != computed {
        return Err(SnapshotError::DigestMismatch { stored, computed });
    }

    let iteration = r.u64()?;
    let strategy_id = r.str()?;
    if !ftt_core::strategy::is_known_strategy_id(&strategy_id) {
        return Err(SnapshotError::Malformed(format!(
            "snapshot records unknown strategy `{strategy_id}`"
        )));
    }
    let mapped = get_mapped(&mut r)?;
    let np = r.len(1)?;
    let mut params = Vec::with_capacity(np);
    for _ in 0..np {
        let layer_index = r.size()?;
        let nw = r.len(4)?;
        let mut weights = Vec::with_capacity(nw);
        for _ in 0..nw {
            weights.push(r.f32()?);
        }
        let bias = r.opt(|r| {
            let nb = r.len(4)?;
            let mut b = Vec::with_capacity(nb);
            for _ in 0..nb {
                b.push(r.f32()?);
            }
            Ok(b)
        })?;
        params.push(NetParamState {
            layer_index,
            weights,
            bias,
        });
    }
    let nl = r.len(1)?;
    let mut ledgers = Vec::with_capacity(nl);
    for _ in 0..nl {
        let n = r.len(4)?;
        let mut ledger = Vec::with_capacity(n);
        for _ in 0..n {
            ledger.push(r.u32()?);
        }
        ledgers.push(ledger);
    }
    let nc = r.len(32)?;
    let mut curve = Vec::with_capacity(nc);
    for _ in 0..nc {
        curve.push(CurvePoint {
            iteration: r.u64()?,
            test_accuracy: r.f64()?,
            faulty_fraction: r.f64()?,
            write_pulses: r.u64()?,
        });
    }
    let active_mask = r.opt(|r| {
        let n = r.len(1)?;
        let mut layers = Vec::with_capacity(n);
        for _ in 0..n {
            let layer_index = r.size()?;
            let shape = (r.size()?, r.size()?);
            let np = r.len(1)?;
            let mut pruned = Vec::with_capacity(np);
            for _ in 0..np {
                pruned.push(r.bool()?);
            }
            layers.push(LayerMask {
                layer_index,
                shape,
                pruned,
            });
        }
        Ok(layers)
    })?;
    let burst_start = r.opt(|r| r.u64())?;
    let burst_skipped = r.u64()?;
    let batch_stream = r.opt(get_batch_stream)?;
    let ncnt = r.len(9)?;
    let mut counters = Vec::with_capacity(ncnt);
    for _ in 0..ncnt {
        let name = r.str()?;
        counters.push((name, r.u64()?));
    }
    let ng = r.len(9)?;
    let mut gauges = Vec::with_capacity(ng);
    for _ in 0..ng {
        let name = r.str()?;
        gauges.push((name, r.f64()?));
    }
    let clock_iteration = r.u64()?;
    let clock_write_pulses = r.u64()?;
    let seq = r.u64()?;
    let nk = r.len(8)?;
    let mut kind_counts = Vec::with_capacity(nk);
    for _ in 0..nk {
        kind_counts.push(r.u64()?);
    }
    if r.remaining() != 0 {
        return Err(SnapshotError::Malformed(format!(
            "{} trailing bytes after the payload",
            r.remaining()
        )));
    }
    Ok(TrainerState {
        iteration,
        strategy_id,
        mapped,
        params,
        ledgers,
        curve,
        active_mask,
        burst_start,
        burst_skipped,
        batch_stream,
        counters,
        gauges,
        clock: ClockState {
            iteration: clock_iteration,
            write_pulses: clock_write_pulses,
            seq,
            kind_counts,
        },
    })
}

// ---- top-level API -----------------------------------------------------

/// Captures and serializes the trainer's complete state. Call at an
/// iteration boundary (between [`FaultTolerantTrainer::train`] calls).
pub fn snapshot(trainer: &mut FaultTolerantTrainer) -> Vec<u8> {
    encode(&trainer.export_state())
}

/// Decodes a snapshot and rebuilds a trainer from it: `net` is a template
/// network of the original topology, `mapping`/`flow` the original
/// configs, `recorder` a fresh recorder (attach sinks to capture the
/// continuation's event stream — it picks up the logical clock exactly
/// where the snapshot left it).
///
/// # Errors
///
/// Structural errors from [`decode`], or [`SnapshotError::Invalid`] when
/// the decoded state fails the domain layers' coherence checks.
pub fn resume(
    bytes: &[u8],
    net: Network,
    mapping: MappingConfig,
    flow: FlowConfig,
    recorder: Recorder,
) -> Result<FaultTolerantTrainer, SnapshotError> {
    let state = decode(bytes)?;
    Ok(FaultTolerantTrainer::restore_state(
        net, mapping, flow, recorder, &state,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftt_core::MappingScope;
    use nn::init::init_rng;
    use nn::optimizer::LrSchedule;
    use nn::synth::SyntheticDataset;
    use rram::endurance::EnduranceModel;

    fn net(seed: u64) -> Network {
        let mut rng = init_rng(seed);
        let mut n = Network::new();
        n.push(nn::layers::Dense::new(784, 12, &mut rng));
        n.push(nn::layers::Relu::new());
        n.push(nn::layers::Dense::new(12, 10, &mut rng));
        n
    }

    fn mapping(seed: u64) -> MappingConfig {
        MappingConfig::new(MappingScope::EntireNetwork)
            .with_initial_fault_fraction(0.15)
            .with_endurance(EnduranceModel::new(40.0, 10.0))
            .with_seed(seed)
            .with_spare_tiles(4)
            .with_retire_fault_density(0.3)
    }

    fn flow() -> FlowConfig {
        FlowConfig::fault_tolerant()
            .with_lr(LrSchedule::constant(0.1))
            .with_detection_interval(5)
            .with_detection_warmup(0)
            .with_eval_interval(5)
    }

    fn traced(seed: u64) -> (FaultTolerantTrainer, obs::JsonlView) {
        let recorder = Recorder::deterministic();
        let sink = obs::JsonlSink::new();
        let view = sink.view();
        recorder.add_sink(Box::new(sink));
        let t = FaultTolerantTrainer::with_recorder(net(seed), mapping(seed), flow(), recorder)
            .unwrap();
        (t, view)
    }

    #[test]
    fn encode_decode_roundtrips_exactly() {
        let data = SyntheticDataset::mnist_like(40, 10, 3);
        let (mut trainer, _view) = traced(3);
        trainer.train(&data, 12).unwrap();
        let state = trainer.export_state();
        let bytes = encode(&state);
        let back = decode(&bytes).unwrap();
        assert_eq!(back, state);
        // Byte-determinism: encoding the same state twice is identical.
        assert_eq!(encode(&back), bytes);
    }

    #[test]
    fn resumed_process_continues_byte_identically() {
        let data = SyntheticDataset::mnist_like(40, 10, 3);
        let (mut full, full_view) = traced(3);
        full.train(&data, 23).unwrap();

        let (mut head, head_view) = traced(3);
        head.train(&data, 9).unwrap();
        let bytes = snapshot(&mut head);
        drop(head); // the "process" ends here; only `bytes` survives

        let recorder = Recorder::deterministic();
        let sink = obs::JsonlSink::new();
        let tail_view = sink.view();
        recorder.add_sink(Box::new(sink));
        let mut resumed = resume(&bytes, net(3), mapping(3), flow(), recorder).unwrap();
        resumed.train(&data, 14).unwrap();

        let stitched = format!("{}{}", head_view.contents(), tail_view.contents());
        assert_eq!(stitched, full_view.contents());
        assert_eq!(resumed.stats(), full.stats());
        // Double roundtrip through bytes is stable.
        let s2 = snapshot(&mut resumed);
        let s2_again = encode(&decode(&s2).unwrap());
        assert_eq!(s2, s2_again);
    }

    #[test]
    fn tampered_snapshots_are_rejected_with_typed_errors() {
        let data = SyntheticDataset::mnist_like(40, 10, 3);
        let (mut trainer, _view) = traced(3);
        trainer.train(&data, 6).unwrap();
        let good = snapshot(&mut trainer);

        assert!(matches!(decode(&[]), Err(SnapshotError::Truncated { .. })));

        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(matches!(decode(&bad), Err(SnapshotError::BadMagic)));

        let mut bad = good.clone();
        bad[8] = 0xee; // version field
        assert!(matches!(
            decode(&bad),
            Err(SnapshotError::UnsupportedVersion(_))
        ));

        // Any payload bit flip trips the digest.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            decode(&bad),
            Err(SnapshotError::DigestMismatch { .. })
        ));

        let mut bad = good.clone();
        bad.truncate(bad.len() / 2);
        assert!(decode(&bad).is_err());

        // Semantically incoherent but structurally valid: a store whose
        // pending count disagrees with its mask popcount decodes fine and
        // is rejected by domain validation on resume.
        let mut state = decode(&good).unwrap();
        let mut tampered = false;
        for slot in &mut state.mapped.chip.slots {
            if let Some(store) = &mut slot.store {
                store.pending_count += 1;
                tampered = true;
                break;
            }
        }
        assert!(tampered, "a campaign must have attached a store");
        let bytes = encode(&state);
        assert!(matches!(
            resume(
                &bytes,
                net(3),
                mapping(3),
                flow(),
                Recorder::deterministic()
            ),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn strategy_selection_round_trips_and_unknown_ids_are_rejected() {
        let data = SyntheticDataset::mnist_like(40, 10, 3);
        let (mut trainer, _view) = traced(3);
        trainer.train(&data, 6).unwrap();
        let state = trainer.export_state();
        assert_eq!(state.strategy_id, "detect_remap");
        let good = encode(&state);

        // v2 layout: the strategy id survives the wire round trip.
        assert_eq!(decode(&good).unwrap().strategy_id, "detect_remap");

        // A capture recording a strategy this build does not know is
        // structurally rejected at decode time.
        let mut alien = state.clone();
        alien.strategy_id = "time_travel".into();
        assert!(matches!(
            decode(&encode(&alien)),
            Err(SnapshotError::Malformed(_))
        ));

        // A known id that differs from the restoring configuration is
        // rejected by domain validation: a detect_remap capture cannot
        // silently continue as an unprotected run.
        let mut crossed = state.clone();
        crossed.strategy_id = "noop".into();
        assert!(matches!(
            resume(
                &encode(&crossed),
                net(3),
                mapping(3),
                flow(),
                Recorder::deterministic()
            ),
            Err(SnapshotError::Invalid(_))
        ));

        // And the matching id restores fine.
        assert!(resume(&good, net(3), mapping(3), flow(), Recorder::deterministic()).is_ok());
    }
}
