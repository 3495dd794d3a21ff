//! What every workload shares: the cold engine run, the per-pass
//! tallies, and the workload interface the timing loop drives.

use crate::policy::{PolicyProbe, TimedPolicy};
use crate::trace::{SpanId, Tracer};
use rtr_manager::{
    Engine, JobSpec, ManagerConfig, ReplacementPolicy, RunStats, SimError, SimulationOutcome,
};
use rtr_taskgraph::TemplateSet;
use std::rc::Rc;
use std::sync::Arc;

/// Host-side call counts of one traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCounts {
    /// `Engine::submit` calls.
    pub submit_calls: u64,
    /// `select_victim` calls.
    pub select_calls: u64,
    /// Policy notification callbacks.
    pub callback_calls: u64,
    /// Checker assertions evaluated (sum of `fired`).
    pub assertions: u64,
    /// Trace events recorded by the engine.
    pub trace_events: u64,
    /// Jobs a fleet admitted.
    pub fleet_admitted: u64,
    /// Jobs a fleet rejected at its quota.
    pub fleet_rejected: u64,
}

/// Simulated counters summed over the unit runs of one pass. They
/// depend only on the inputs, never on the host.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTotals {
    /// Task instances executed.
    pub executed: u64,
    /// Task instances that reused a resident configuration.
    pub reuses: u64,
    /// Reconfigurations.
    pub loads: u64,
    /// Skip Events delays.
    pub skips: u64,
    /// Loads that found no victim and retried.
    pub stalls: u64,
    /// Speculative loads started.
    pub prefetch_issued: u64,
    /// Speculative loads that completed.
    pub prefetch_completed: u64,
    /// Completed speculative loads later claimed.
    pub prefetch_hits: u64,
    /// Faults injected.
    pub faults_injected: u64,
    /// Load retries after a fault.
    pub faults_retries: u64,
    /// QoS preemptions.
    pub preemptions: u64,
    /// Makespan of each unit run, summed (a fleet's is its slowest
    /// device's), in µs.
    pub makespan_us: u64,
    /// Makespan beyond the ideal, summed over engines, in µs.
    pub overhead_us: u64,
    /// Ideal makespan, summed over engines, in µs.
    pub ideal_us: u64,
}

impl SimTotals {
    /// Adds one engine's counters; `unit` also counts its makespan as a
    /// unit run's (false for a fleet's devices).
    pub fn add(&mut self, s: &RunStats, unit: bool) {
        self.executed += s.executed;
        self.reuses += s.reuses;
        self.loads += s.loads;
        self.skips += s.skips;
        self.stalls += s.stalls;
        self.prefetch_issued += s.prefetch.issued;
        self.prefetch_completed += s.prefetch.completed;
        self.prefetch_hits += s.prefetch.hits;
        self.faults_injected += s.faults.injected;
        self.faults_retries += s.faults.retries;
        self.preemptions += s.qos.preemptions;
        if unit {
            self.makespan_us += s.makespan.as_us();
        }
        self.overhead_us += s.total_overhead().as_us();
        self.ideal_us += s.ideal_makespan.as_us();
    }

    /// Reused over executed tasks, in percent.
    pub fn reuse_pct(&self) -> f64 {
        ratio(self.reuses, self.executed) * 100.0
    }

    /// Visible reconfiguration overhead over the ideal makespan, in
    /// percent.
    pub fn overhead_pct(&self) -> f64 {
        ratio(self.overhead_us, self.ideal_us) * 100.0
    }
}

/// Seed of the `k`-th independent input derived from `seed`
/// (SplitMix64 over `seed + k`), so sub-inputs never share a stream.
pub fn sub_seed(seed: u64, k: usize) -> u64 {
    let mut z = seed.wrapping_add((k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Wall time and completed jobs (admitted jobs on a fleet) of one unit
/// run; a failed run counts no jobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitRun {
    /// Seconds from the unit run's start to its end.
    pub secs: f64,
    /// Jobs it completed.
    pub jobs: u64,
}

/// What one pass (one sample) did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Every unit run, in the same order on every pass.
    pub units: Vec<UnitRun>,
    /// One line per failed unit run.
    pub failures: Vec<String>,
    /// Host counts (filled on traced passes).
    pub host: HostCounts,
}

impl Pass {
    /// Tallies one unit run that took `secs`: its jobs, or its failure.
    pub fn record(&mut self, secs: f64, result: Result<u64, String>) {
        let jobs = match result {
            Ok(jobs) => jobs,
            Err(e) => {
                self.failures.push(e);
                0
            }
        };
        self.units.push(UnitRun { secs, jobs });
    }

    /// Jobs completed over the whole pass.
    pub fn jobs(&self) -> u64 {
        self.units.iter().map(|u| u.jobs).sum()
    }
}

/// A benchmark workload: inputs generated from a seed, then repeated
/// passes, each made of cold unit runs.
pub trait Workload: Sized {
    /// Generates the inputs and runs design time. Spans go under the
    /// set-up root `root`.
    fn setup(seed: u64, tracer: &mut Tracer, root: SpanId) -> Self;

    /// Runs every unit run once. When the tracer is on, each unit run
    /// is a root span and the policies are wrapped.
    fn pass(&mut self, tracer: &mut Tracer) -> Pass;

    /// Simulated totals of one pass (from the first run of each unit).
    fn sim(&self) -> SimTotals;

    /// Distinct templates the set-up interned.
    fn templates(&self) -> usize;
}

/// Compares a unit run's stats with the first run of the same unit,
/// storing them when there is none. Returns a failure line on a
/// difference.
pub fn check_repeat<T: PartialEq + Clone>(
    reference: &mut Option<T>,
    got: &T,
    what: &str,
) -> Option<String> {
    match reference {
        None => {
            *reference = Some(got.clone());
            None
        }
        Some(r) if r == got => None,
        Some(_) => Some(format!("{what}: stats differ from the first run")),
    }
}

/// One cold engine run under root span `root`: a fresh engine on the
/// shared template set, every job submitted, one `run_with`, one
/// `outcome`. When the tracer is on, the policy is wrapped and its
/// decision time becomes an aggregated child of the run span.
pub fn cold_run<P: ReplacementPolicy>(
    cfg: &ManagerConfig,
    templates: &Arc<TemplateSet>,
    jobs: &[JobSpec],
    mut policy: P,
    tracer: &mut Tracer,
    root: SpanId,
    host: &mut HostCounts,
) -> Result<SimulationOutcome, SimError> {
    if !tracer.is_on() {
        return drive(cfg, templates, jobs, &mut policy, tracer, root).0;
    }
    let probe = Rc::new(PolicyProbe::default());
    let mut timed = TimedPolicy::new(policy, Rc::clone(&probe));
    let (out, run_span) = drive(cfg, templates, jobs, &mut timed, tracer, root);
    let c = probe.drain();
    tracer.aggregate(
        run_span,
        "core.policy.select_victim",
        c.select,
        c.select_calls,
    );
    host.submit_calls += jobs.len() as u64;
    host.select_calls += c.select_calls;
    host.callback_calls += c.callback_calls;
    out
}

/// The calls of [`cold_run`]; returns the outcome and the run span.
fn drive<P: ReplacementPolicy>(
    cfg: &ManagerConfig,
    templates: &Arc<TemplateSet>,
    jobs: &[JobSpec],
    policy: &mut P,
    tracer: &mut Tracer,
    root: SpanId,
) -> (Result<SimulationOutcome, SimError>, SpanId) {
    let span = tracer.open("manager.new", Some(root));
    let mut engine = Engine::with_templates(cfg, Arc::clone(templates));
    tracer.close(span, 1);

    let span = tracer.open("manager.submit", Some(root));
    for job in jobs {
        engine.submit(job.clone());
    }
    tracer.close(span, jobs.len() as u64);

    let run_span = tracer.open("manager.run", Some(root));
    engine.run_with(policy);
    tracer.close(run_span, 1);

    let span = tracer.open("manager.outcome", Some(root));
    let out = engine.outcome();
    tracer.close(span, 1);
    (out, run_span)
}
