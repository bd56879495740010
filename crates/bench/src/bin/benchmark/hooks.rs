//! The benchmark's only instrument inside a training run: a
//! [`FaultStrategy`] that delegates every hook to [`DetectRemap`] and
//! stamps an [`Instant`] around them. The trainer calls the hooks at fixed
//! points of each iteration (see `ftt_core::strategy`), so the stamps time
//! each iteration for the end-to-end estimator, and the gaps between them
//! split an iteration into the strategy phase, compute (load effective
//! weights, forward, backward), the threshold update, and the evaluation
//! checkpoint, without a span in any library crate.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use ftt_core::error::FttError;
use ftt_core::strategy::{DetectRemap, FaultStrategy, StrategyCost, StrategyCtx};

/// Stamps of one training iteration, in hook order.
#[derive(Debug, Clone, Copy)]
pub struct IterStamps {
    /// Entry of `on_pre_iteration` (the iteration's start).
    pub pre_start: Instant,
    /// Return of `on_pre_iteration`.
    pub pre_end: Instant,
    /// Entry of `on_gradient` (backward finished).
    pub gradient: Instant,
    /// Return of `on_post_iteration` (update and events finished).
    pub post: Instant,
}

/// The stamp log a [`TimedDetectRemap`] appends to; the benchmark keeps a
/// second handle because the trainer owns the strategy.
pub type HookLog = Rc<RefCell<Vec<IterStamps>>>;

/// [`DetectRemap`] with an [`Instant`] stamped at every hook.
#[derive(Debug)]
pub struct TimedDetectRemap {
    inner: DetectRemap,
    log: HookLog,
}

impl TimedDetectRemap {
    pub fn new(log: HookLog) -> Self {
        Self {
            inner: DetectRemap::new(),
            log,
        }
    }

    fn stamp_last(&self, set: impl FnOnce(&mut IterStamps)) {
        if let Some(last) = self.log.borrow_mut().last_mut() {
            set(last);
        }
    }
}

impl FaultStrategy for TimedDetectRemap {
    fn id(&self) -> &'static str {
        self.inner.id()
    }

    fn on_map(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        self.inner.on_map(ctx)
    }

    fn on_pre_iteration(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        let start = Instant::now();
        let result = self.inner.on_pre_iteration(ctx);
        let end = Instant::now();
        self.log.borrow_mut().push(IterStamps {
            pre_start: start,
            pre_end: end,
            gradient: end,
            post: end,
        });
        result
    }

    fn on_gradient(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        let now = Instant::now();
        self.stamp_last(|s| s.gradient = now);
        self.inner.on_gradient(ctx)
    }

    fn on_fault_event(
        &mut self,
        ctx: &mut StrategyCtx<'_>,
        new_faults: u64,
    ) -> Result<(), FttError> {
        self.inner.on_fault_event(ctx, new_faults)
    }

    fn on_post_iteration(&mut self, ctx: &mut StrategyCtx<'_>) -> Result<(), FttError> {
        let result = self.inner.on_post_iteration(ctx);
        let now = Instant::now();
        self.stamp_last(|s| s.post = now);
        result
    }

    fn cost(&self) -> StrategyCost {
        self.inner.cost()
    }
}

/// Where the time of a hooked run went.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    /// Each iteration's duration, from its pre-hook to the next one (the
    /// last ends when `train` returned), in milliseconds.
    pub iter_ms: Vec<f64>,
    /// Seconds from the first pre-hook to the end of the run.
    pub total_s: f64,
    /// Seconds inside `on_pre_iteration` (the strategy phase).
    pub strategy_s: f64,
    /// Seconds from the pre-hook's return to `on_gradient`.
    pub compute_s: f64,
    /// Seconds from `on_gradient` to the return of `on_post_iteration`.
    pub update_s: f64,
    /// Seconds from the post-hook to the next pre-hook (evaluation
    /// checkpoints).
    pub eval_s: f64,
}

impl Breakdown {
    pub fn from_stamps(stamps: &[IterStamps], end: Instant) -> Self {
        let mut b = Breakdown::default();
        let Some(first) = stamps.first() else {
            return b;
        };
        for (i, s) in stamps.iter().enumerate() {
            let next = stamps.get(i + 1).map_or(end, |n| n.pre_start);
            b.iter_ms
                .push(next.duration_since(s.pre_start).as_secs_f64() * 1e3);
            b.strategy_s += s.pre_end.duration_since(s.pre_start).as_secs_f64();
            b.compute_s += s.gradient.duration_since(s.pre_end).as_secs_f64();
            b.update_s += s.post.duration_since(s.gradient).as_secs_f64();
            b.eval_s += next.duration_since(s.post).as_secs_f64();
        }
        b.total_s = end.duration_since(first.pre_start).as_secs_f64();
        b
    }

    /// `part` as a share of the whole run (0 for an empty run).
    pub fn share(&self, part: f64) -> f64 {
        if self.total_s > 0.0 {
            part / self.total_s
        } else {
            0.0
        }
    }
}
