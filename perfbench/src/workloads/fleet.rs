//! `fleet_soak`: the multi-tenant soak shape.
//!
//! Eight tenants submit through one fleet of four devices (2/4/6/4
//! RUs) under reuse-affinity placement and LRU, placement decisions and
//! traces unrecorded. Tenant 0 is greedy: it submits every other job
//! against a quota of 2,000 pending jobs per 10,000-job wave, with a
//! `drain` per wave, so admission rejects part of its traffic in every
//! wave. It is the only workload with admission and placement. The
//! waves are generated during set-up; only fleet calls are timed.
//!
//! A pass runs [`SOAKS`] independent soaks drawn from the seed.
//! Reuse-affinity placement settles within the first jobs of a soak
//! into one of a few residency patterns, and the pattern decides the
//! soak's reuse (26–67% across seeds, the same at 20k and 200k jobs),
//! so the simulated totals are taken over many soaks to be comparable
//! across seeds.

use crate::policy::{PolicyProbe, TimedPolicy};
use crate::trace::{SpanId, Tracer};
use crate::unit::{check_repeat, sub_seed, HostCounts, Pass, SimTotals, Workload};
use crate::workloads::sweep::suite;
use rtr_core::{LruPolicy, TemplateRegistry};
use rtr_manager::{
    Fleet, FleetConfig, FleetOutcome, FleetStats, JobSpec, ManagerConfig, PlacementKind,
    ReplacementPolicy, SimError, TenantId,
};
use rtr_taskgraph::TaskGraph;
use rtr_workload::SequenceModel;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// RU counts of the pooled devices.
pub const DEVICE_RUS: [usize; 4] = [2, 4, 6, 4];
/// Tenants sharing the fleet (tenant 0 submits half of all jobs).
pub const TENANTS: u32 = 8;
/// Per-tenant pending-job quota per wave.
pub const QUOTA: usize = 2_000;
/// Jobs per ingress wave (one `drain` per wave).
pub const WAVE: usize = 10_000;
/// Jobs submitted per soak.
pub const SOAK_JOBS: usize = 20_000;
/// Independent soaks per pass.
pub const SOAKS: usize = 64;

/// Tenant of submission `i`: tenant 0 takes every even submission, the
/// other seven share the odd ones.
fn tenant_of(i: usize) -> TenantId {
    if i.is_multiple_of(2) {
        TenantId(0)
    } else {
        TenantId(1 + ((i / 2) as u32 % (TENANTS - 1)))
    }
}

/// The fleet configuration.
fn config() -> FleetConfig {
    let devices = DEVICE_RUS
        .iter()
        .map(|&rus| {
            ManagerConfig::paper_default()
                .with_rus(rus)
                .with_trace(false)
        })
        .collect();
    FleetConfig::new(devices, PlacementKind::ReuseAffinity)
        .with_quota(QUOTA)
        .with_decisions(false)
}

/// One soak: its tenant-stamped jobs in ingress waves.
pub struct Soak {
    /// Fleet configuration (the seed is recorded in it).
    cfg: FleetConfig,
    /// Jobs per wave, in submission order.
    waves: Vec<Vec<JobSpec>>,
    reference: Option<FleetStats>,
}

impl Soak {
    /// Generates a soak of `jobs` jobs over `suite` from `seed`,
    /// instantiating them through `registry` (traced under the set-up
    /// root `root`).
    pub fn new(
        seed: u64,
        jobs: usize,
        suite: &[Arc<TaskGraph>],
        registry: &TemplateRegistry,
        tracer: &mut Tracer,
        root: SpanId,
    ) -> Soak {
        let cfg = ManagerConfig::paper_default();
        let mut waves = Vec::new();
        let mut submitted = 0;
        while submitted < jobs {
            let count = WAVE.min(jobs - submitted);
            let sequence =
                SequenceModel::UniformRandom.generate(suite, count, sub_seed(seed, waves.len()));
            let span = tracer.open("core.registry.instantiate", Some(root));
            let wave: Vec<JobSpec> = sequence
                .iter()
                .enumerate()
                .map(|(k, g)| {
                    registry
                        .instantiate(g, &cfg, false)
                        .expect("instantiation without mobility cannot fail")
                        .with_tenant(tenant_of(submitted + k))
                })
                .collect();
            tracer.close(span, count as u64);
            waves.push(wave);
            submitted += count;
        }
        Soak {
            cfg: config().with_seed(seed),
            waves,
            reference: None,
        }
    }

    /// One cold soak under root span `root`: a fresh fleet, every wave
    /// submitted and drained, one run, one outcome.
    pub fn run(
        &self,
        tracer: &mut Tracer,
        root: SpanId,
        host: &mut HostCounts,
    ) -> Result<FleetOutcome, SimError> {
        let probe = Rc::new(PolicyProbe::default());
        let mut policies: Vec<Box<dyn ReplacementPolicy>> = DEVICE_RUS
            .iter()
            .map(|_| -> Box<dyn ReplacementPolicy> {
                if tracer.is_on() {
                    Box::new(TimedPolicy::new(LruPolicy::new(), Rc::clone(&probe)))
                } else {
                    Box::new(LruPolicy::new())
                }
            })
            .collect();

        let span = tracer.open("manager.fleet.new", Some(root));
        let mut fleet = Fleet::new(self.cfg.clone());
        tracer.close(span, 1);
        for wave in &self.waves {
            let span = tracer.open("manager.fleet.submit", Some(root));
            for job in wave {
                // Quota rejections are the greedy tenant's designed
                // outcome, recorded in the ledger.
                let _ = fleet.submit(job.clone());
            }
            tracer.close(span, wave.len() as u64);
            let span = tracer.open("manager.fleet.drain", Some(root));
            fleet.drain();
            tracer.close(span, 1);
        }
        let run_span = tracer.open("manager.fleet.run", Some(root));
        fleet.run(&mut policies);
        tracer.close(run_span, 1);
        let span = tracer.open("manager.fleet.outcome", Some(root));
        let out = fleet.outcome();
        tracer.close(span, 1);

        if tracer.is_on() {
            let c = probe.drain();
            tracer.aggregate(
                run_span,
                "core.policy.select_victim",
                c.select,
                c.select_calls,
            );
            host.select_calls += c.select_calls;
            host.callback_calls += c.callback_calls;
        }
        out
    }

    /// One checked run of soak `k`, tallied into `pass`.
    fn checked(&mut self, k: usize, tracer: &mut Tracer, pass: &mut Pass) {
        let started = Instant::now();
        let root = tracer.unit("unit.fleet_soak");
        let out = self.run(tracer, root, &mut pass.host);
        tracer.close(root, 1);
        let secs = started.elapsed().as_secs_f64();
        let stats = match out {
            Ok(out) => out.stats,
            Err(e) => return pass.record(secs, Err(format!("soak {k}: {e}"))),
        };
        if tracer.is_on() {
            pass.host.fleet_admitted += stats.admitted;
            pass.host.fleet_rejected += stats.rejected;
        }
        let mut issues = Vec::new();
        if !stats.balanced() {
            issues.push("ledger unbalanced".to_string());
        }
        if stats.completed != stats.admitted {
            issues.push(format!(
                "{} admitted but {} completed",
                stats.admitted, stats.completed
            ));
        }
        issues.extend(check_repeat(&mut self.reference, &stats, "stats"));
        let result = if issues.is_empty() {
            Ok(stats.admitted)
        } else {
            Err(format!("soak {k}: {}", issues.join("; ")))
        };
        pass.record(secs, result);
    }
}

/// The `fleet_soak` workload.
pub struct FleetSoak {
    registry: TemplateRegistry,
    soaks: Vec<Soak>,
}

impl Workload for FleetSoak {
    fn setup(seed: u64, tracer: &mut Tracer, root: SpanId) -> Self {
        let suite = suite();
        let registry = TemplateRegistry::new();
        let soaks = (0..SOAKS)
            .map(|k| {
                Soak::new(
                    sub_seed(seed, k),
                    SOAK_JOBS,
                    &suite,
                    &registry,
                    tracer,
                    root,
                )
            })
            .collect();
        FleetSoak { registry, soaks }
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for (k, soak) in self.soaks.iter_mut().enumerate() {
            soak.checked(k, tracer, &mut pass);
        }
        pass
    }

    fn sim(&self) -> SimTotals {
        let mut t = SimTotals::default();
        for stats in self.soaks.iter().filter_map(|s| s.reference.as_ref()) {
            for d in &stats.per_device {
                t.add(d, false);
            }
            t.makespan_us += stats.makespan.as_us();
        }
        t
    }

    fn templates(&self) -> usize {
        self.registry.templates()
    }
}
