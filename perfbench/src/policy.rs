//! The traced run's policy wrapper: times every `select_victim` call
//! and counts the notification callbacks.
//!
//! Callbacks are counted, not timed: they fire several times per task,
//! and a clock read around each would inflate the run more than the
//! callbacks cost. A decision takes tens of nanoseconds, about what the
//! clock takes to read, so every timed call has the clock's own cost
//! (see [`clock_floor_ns`]) taken off.
//!
//! The wrapper forwards every call unchanged, so a wrapped run makes
//! the same decisions as an unwrapped one (the harness tests check
//! this). It implements only the decision and notification methods;
//! run on a fresh engine, no other method is ever asked of it.

use rtr_hw::RuId;
use rtr_manager::{DecisionContext, ReplacementPolicy};
use rtr_sim::SimTime;
use rtr_taskgraph::ConfigId;
use std::cell::Cell;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// What timing an empty interval reads: the median over 1,001 tries of
/// `Instant::now()` followed at once by `elapsed()`. Measured once per
/// process.
pub fn clock_floor_ns() -> u64 {
    static FLOOR: OnceLock<u64> = OnceLock::new();
    *FLOOR.get_or_init(|| {
        let mut reads: Vec<u64> = (0..1_001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        reads.sort_unstable();
        reads[reads.len() / 2]
    })
}

/// Counters shared between a wrapper and the harness that reads them
/// (a fleet takes its policies as boxed trait objects, so the harness
/// cannot reach back into the wrapper).
#[derive(Debug, Default)]
pub struct PolicyProbe {
    select_ns: Cell<u64>,
    select_calls: Cell<u64>,
    callback_calls: Cell<u64>,
}

/// What a probe counted since it was last drained.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyCounts {
    /// Time inside `select_victim`.
    pub select: Duration,
    /// `select_victim` calls.
    pub select_calls: u64,
    /// Notification callbacks (`on_*`).
    pub callback_calls: u64,
}

impl PolicyProbe {
    /// Returns the counts and resets them.
    pub fn drain(&self) -> PolicyCounts {
        PolicyCounts {
            select: Duration::from_nanos(self.select_ns.take()),
            select_calls: self.select_calls.take(),
            callback_calls: self.callback_calls.take(),
        }
    }

    fn callback(&self) {
        self.callback_calls.set(self.callback_calls.get() + 1);
    }
}

/// A policy that reports to a [`PolicyProbe`].
pub struct TimedPolicy<P> {
    inner: P,
    probe: Rc<PolicyProbe>,
    floor_ns: u64,
}

impl<P: ReplacementPolicy> TimedPolicy<P> {
    /// Wraps `inner`, reporting to `probe`.
    pub fn new(inner: P, probe: Rc<PolicyProbe>) -> Self {
        TimedPolicy {
            inner,
            probe,
            floor_ns: clock_floor_ns(),
        }
    }
}

impl<P: ReplacementPolicy> ReplacementPolicy for TimedPolicy<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select_victim(&mut self, ctx: &DecisionContext<'_>) -> RuId {
        let t0 = Instant::now();
        let ru = self.inner.select_victim(ctx);
        let ns = (t0.elapsed().as_nanos() as u64).saturating_sub(self.floor_ns);
        self.probe.select_ns.set(self.probe.select_ns.get() + ns);
        self.probe
            .select_calls
            .set(self.probe.select_calls.get() + 1);
        ru
    }

    fn on_load_complete(&mut self, config: ConfigId, ru: RuId, now: SimTime) {
        self.probe.callback();
        self.inner.on_load_complete(config, ru, now);
    }

    fn on_reuse(&mut self, config: ConfigId, ru: RuId, now: SimTime) {
        self.probe.callback();
        self.inner.on_reuse(config, ru, now);
    }

    fn on_exec_start(&mut self, config: ConfigId, now: SimTime) {
        self.probe.callback();
        self.inner.on_exec_start(config, now);
    }

    fn on_exec_end(&mut self, config: ConfigId, now: SimTime) {
        self.probe.callback();
        self.inner.on_exec_end(config, now);
    }

    fn on_graph_start(&mut self, job: u32, now: SimTime) {
        self.probe.callback();
        self.inner.on_graph_start(job, now);
    }

    fn on_graph_end(&mut self, job: u32, now: SimTime) {
        self.probe.callback();
        self.inner.on_graph_end(job, now);
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}
