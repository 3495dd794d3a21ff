//! Anti-vacuity for the invariant-checker registry: a curated golden
//! scenario suite must make **every** registered checker actually
//! evaluate something (`fired > 0`). A checker that never fires is a
//! silent hole — the campaign-level twin of this gate is the `vopr`
//! smoke run's coverage gate.

use rtr_core::LfdPolicy;
use rtr_hw::RuId;
use rtr_manager::{
    simulate, simulate_fleet, CheckContext, CheckerRegistry, FaultKind, FaultPlan, FleetConfig,
    FleetOutcome, JobSpec, Lookahead, ManagerConfig, PlacementKind, PrefetchConfig, RegistryReport,
    ReplacementPolicy, SimulationOutcome, TenantId, Trace, TraceEvent,
};
use rtr_sim::{SimDuration, SimTime};
use rtr_taskgraph::{benchmarks, ConfigId, NodeId, TaskGraph};
use rtr_workload::{ArrivalProcess, QosSpec, SequenceModel};
use std::collections::BTreeMap;
use std::sync::Arc;

/// One golden scenario: a completed run plus the context the registry
/// needs (reference outcome for `pooled-identity`, prefetch depth for
/// `prefetch-off-invisible`).
struct Golden {
    name: &'static str,
    outcome: SimulationOutcome,
    reference: SimulationOutcome,
    jobs: Vec<JobSpec>,
    latency: SimDuration,
    depth: usize,
}

fn multimedia_jobs(count: usize, seed: u64, arrivals: &ArrivalProcess) -> Vec<JobSpec> {
    let templates: Vec<Arc<TaskGraph>> = benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let seq = SequenceModel::UniformRandom.generate(&templates, count, seed);
    let instants = arrivals.generate(count, seed ^ 0xA11);
    seq.iter()
        .zip(&instants)
        .map(|(g, &a)| JobSpec::new(Arc::clone(g)).with_arrival(a))
        .collect()
}

fn golden(
    name: &'static str,
    cfg: &ManagerConfig,
    jobs: Vec<JobSpec>,
    mut policy: Box<dyn ReplacementPolicy>,
) -> Golden {
    let outcome = simulate(cfg, &jobs, policy.as_mut()).expect("golden scenario completes");
    let reference = simulate(cfg, &jobs, policy.as_mut()).expect("golden scenario completes");
    Golden {
        name,
        outcome,
        reference,
        jobs,
        latency: cfg.device.reconfig_latency,
        depth: cfg.prefetch.depth,
    }
}

/// The curated suite, chosen so the union covers every checker:
/// a batch depth-0 run (`prefetch-off-invisible`), a streaming
/// prefetch-on run (`prefetch-guard` probes at every speculative
/// load), and a Skip-Events run (skip/stall paths of
/// `reuse-residency`). Every scenario carries a reference, so
/// `pooled-identity` fires throughout.
fn golden_suite() -> Vec<Golden> {
    let base = ManagerConfig::paper_default().with_lookahead(Lookahead::Graphs(1));
    let mut suite = vec![golden(
        "batch-depth0",
        &base,
        multimedia_jobs(40, 11, &ArrivalProcess::Batch),
        Box::new(LfdPolicy::local(1)),
    )];
    let prefetch_cfg = base.clone().with_prefetch(PrefetchConfig::with_depth(4));
    suite.push(golden(
        "streaming-prefetch4",
        &prefetch_cfg,
        multimedia_jobs(
            60,
            42,
            &ArrivalProcess::Poisson {
                mean_gap_us: 100_000,
            },
        ),
        Box::new(LfdPolicy::local(1)),
    ));
    let skip_cfg = base
        .clone()
        .with_lookahead(Lookahead::Graphs(2))
        .with_skip_events(true);
    let skip_jobs: Vec<JobSpec> = multimedia_jobs(30, 7, &ArrivalProcess::Batch)
        .into_iter()
        .map(|job| {
            let mobility = Arc::new(
                rtr_core::compute_mobility(&job.graph, &skip_cfg).expect("mobility computes"),
            );
            job.with_mobility(mobility)
        })
        .collect();
    suite.push(golden(
        "skip-events",
        &skip_cfg,
        skip_jobs,
        Box::new(LfdPolicy::local_with_skip(2)),
    ));
    suite
}

/// The fleet golden: a 2-device ReuseAffinity pool under a tenant
/// quota tight enough to reject some submissions, so the admission
/// replay of `tenant-isolation` exercises both branches. Each device
/// carries a partitioned reference run (jobs routed to it, replayed
/// through a dedicated engine) so the single-device checkers fire on
/// the pooled traces too.
struct FleetGolden {
    cfg: FleetConfig,
    outcome: FleetOutcome,
    routed: Vec<Vec<JobSpec>>,
    references: Vec<SimulationOutcome>,
    device_rus: Vec<usize>,
}

fn fleet_golden() -> FleetGolden {
    let base = ManagerConfig::paper_default().with_lookahead(Lookahead::Graphs(1));
    let devices: Vec<ManagerConfig> = [2usize, 4]
        .iter()
        .map(|&rus| base.clone().with_rus(rus))
        .collect();
    let device_rus: Vec<usize> = devices.iter().map(|c| c.rus).collect();
    let cfg = FleetConfig::new(devices, PlacementKind::ReuseAffinity).with_quota(10);
    let jobs: Vec<JobSpec> = multimedia_jobs(48, 23, &ArrivalProcess::Batch)
        .into_iter()
        .enumerate()
        .map(|(i, job)| job.with_tenant(TenantId((i % 3) as u32)))
        .collect();
    let build = || Box::new(LfdPolicy::local(1)) as Box<dyn ReplacementPolicy>;
    let outcome = simulate_fleet(&cfg, &jobs, build).expect("fleet golden completes");
    let mut routed: Vec<Vec<JobSpec>> = vec![Vec::new(); cfg.devices.len()];
    for d in &outcome.decisions {
        routed[d.device].push(jobs[d.submit_index].clone());
    }
    let references: Vec<SimulationOutcome> = cfg
        .devices
        .iter()
        .zip(&routed)
        .map(|(dev_cfg, dev_jobs)| {
            let mut policy = build();
            simulate(dev_cfg, dev_jobs, policy.as_mut()).expect("fleet reference completes")
        })
        .collect();
    FleetGolden {
        cfg,
        outcome,
        routed,
        references,
        device_rus,
    }
}

#[test]
fn every_registered_checker_fires_on_the_golden_suite() {
    let registry = CheckerRegistry::standard();
    let mut fired: BTreeMap<&'static str, u64> =
        registry.names().into_iter().map(|n| (n, 0)).collect();
    for g in golden_suite() {
        let cx = CheckContext::new(&g.outcome.trace, &g.jobs, g.latency, Some(&g.outcome.stats))
            .with_reference(&g.reference)
            .with_prefetch_depth(g.depth);
        let report = registry.run(&cx);
        assert!(
            report.is_clean(),
            "golden scenario '{}' must validate:\n{}",
            g.name,
            report.render()
        );
        for o in &report.outcomes {
            *fired.get_mut(o.name).expect("registered name") += o.fired;
        }
    }
    let fg = fleet_golden();
    let info = fg.outcome.check_info(&fg.cfg, &fg.device_rus);
    for (d, dev) in fg.outcome.devices.iter().enumerate() {
        let cx = CheckContext::new(
            &dev.trace,
            &fg.routed[d],
            fg.cfg.devices[d].device.reconfig_latency,
            Some(&dev.stats),
        )
        .with_reference(&fg.references[d]);
        let cx = if d == 0 { cx.with_fleet(&info) } else { cx };
        let report = registry.run(&cx);
        assert!(
            report.is_clean(),
            "fleet golden device {d} must validate:\n{}",
            report.render()
        );
        for o in &report.outcomes {
            *fired.get_mut(o.name).expect("registered name") += o.fired;
        }
    }
    let silent: Vec<&&str> = fired
        .iter()
        .filter_map(|(name, &n)| (n == 0).then_some(name))
        .collect();
    assert!(
        silent.is_empty(),
        "checkers never fired on the golden suite (vacuous): {silent:?}\ntotals: {fired:?}"
    );
}

#[test]
fn registry_reports_are_deterministic_and_ordered() {
    let registry = CheckerRegistry::standard();
    let suite = golden_suite();
    let g = &suite[1];
    let cx = CheckContext::new(&g.outcome.trace, &g.jobs, g.latency, Some(&g.outcome.stats))
        .with_reference(&g.reference)
        .with_prefetch_depth(g.depth);
    let a = registry.run(&cx);
    let b = registry.run(&cx);
    assert_eq!(a.render(), b.render(), "reports must be byte-stable");
    let names: Vec<&'static str> = a.outcomes.iter().map(|o| o.name).collect();
    assert_eq!(
        names,
        registry.names(),
        "report order must follow registration order"
    );
}

#[test]
fn disabling_a_checker_silences_only_that_checker() {
    let mut registry = CheckerRegistry::standard();
    registry
        .set_enabled("prefetch-guard", false)
        .expect("registered name");
    let suite = golden_suite();
    let g = &suite[1]; // the prefetch-on scenario
    let cx = CheckContext::new(&g.outcome.trace, &g.jobs, g.latency, Some(&g.outcome.stats))
        .with_reference(&g.reference)
        .with_prefetch_depth(g.depth);
    let report = registry.run(&cx);
    assert!(report.outcome("prefetch-guard").is_none());
    assert_eq!(
        report.outcomes.len(),
        CheckerRegistry::standard().names().len() - 1
    );
    assert!(report.is_clean());
}

/// The stream the fired-count golden pins: 1,000 multimedia jobs with
/// Poisson arrivals (mean gap 70 ms) on 4 RUs, every 4th job promoted
/// to priority 1 with a 300% deadline, prefetch depth 2, and the low
/// fault plan's resident upsets and RU hard faults (no load
/// corruption).
fn fired_golden_stream() -> (ManagerConfig, Vec<JobSpec>, SimulationOutcome) {
    const RUS: usize = 4;
    let suite: Vec<Arc<TaskGraph>> = benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let sequence = SequenceModel::UniformRandom.generate(&suite, 1_000, 2024);
    let arrivals = ArrivalProcess::Poisson {
        mean_gap_us: 70_000,
    }
    .generate(1_000, 2025);
    let classes = QosSpec::strided(4, 1, 300)
        .assign(&sequence, &arrivals, RUS)
        .expect("a strided spec assigns classes");
    let low = FaultPlan::low(2026);
    let cfg = ManagerConfig::paper_default()
        .with_rus(RUS)
        .with_prefetch(PrefetchConfig::with_depth(2))
        .with_faults(low.with_load_faults(0, low.max_retries))
        .with_trace(true);
    let jobs: Vec<JobSpec> = sequence
        .iter()
        .zip(arrivals)
        .zip(classes)
        .map(|((g, at), qos)| JobSpec::new(Arc::clone(g)).with_arrival(at).with_qos(qos))
        .collect();
    let out = simulate(&cfg, &jobs, &mut LfdPolicy::local(1)).expect("the stream completes");
    (cfg, jobs, out)
}

/// Every checker's fired count on one seeded fault-and-QoS stream,
/// pinned byte for byte: a change to how the registry walks a trace
/// must evaluate exactly the same assertions.
#[test]
fn fired_counts_are_pinned_on_a_seeded_stream() {
    let (cfg, jobs, out) = fired_golden_stream();
    let c = out.trace.counts();
    assert!(
        c.prefetch_issued > 0 && c.fault_upsets > 0 && c.fault_ru > 0,
        "the stream must exercise prefetch, upsets and RU hard faults: {c:?}"
    );
    let cx = CheckContext::new(
        &out.trace,
        &jobs,
        cfg.device.reconfig_latency,
        Some(&out.stats),
    )
    .with_prefetch_depth(cfg.prefetch.depth)
    .with_fault_plan(&cfg.faults);
    let report = CheckerRegistry::standard().run(&cx);
    assert_eq!(report.render(), FIRED_GOLDEN);
}

const FIRED_GOLDEN: &str = concat!(
    "checker arrival-order: fired=5000 violations=0\n",
    "checker port-lanes: fired=19624 violations=0\n",
    "checker ru-intervals: fired=6740 violations=0\n",
    "checker task-lifecycle: fired=30037 violations=0\n",
    "checker precedence: fired=4346 violations=0\n",
    "checker reuse-residency: fired=19905 violations=0\n",
    "checker prefetch-guard: fired=0 violations=0\n",
    "checker counter-equality: fired=7 violations=0\n",
    "checker traffic-equality: fired=3 violations=0\n",
    "checker prefetch-accounting: fired=4 violations=0\n",
    "checker prefetch-off-invisible: fired=0 violations=0\n",
    "checker no-lost-work: fired=10004 violations=0\n",
    "checker preemption-order: fired=1 violations=0\n",
    "checker qos-accounting: fired=8 violations=0\n",
    "checker fault-retry-bounded: fired=4899 violations=0\n",
    "checker quarantine-isolation: fired=21888 violations=0\n",
    "checker corrupt-never-reused: fired=7005 violations=0\n",
    "checker fault-accounting: fired=11 violations=0\n",
    "checker pooled-identity: fired=0 violations=0\n",
    "checker tenant-isolation: fired=0 violations=0\n",
    "checker placement-residency: fired=0 violations=0\n",
    "checker fleet-accounting: fired=0 violations=0\n",
);

/// A node event of `kind` (`load`, `reuse`, `start`, `end` or `kill`)
/// for node `node` of job `job` on the RU with index `ru`, at `ms`.
/// Node `n` holds configuration `10 + n`, as in the JPEG graph.
fn node_event(kind: &str, job: u32, node: u32, ru: u16, ms: u64) -> TraceEvent {
    let (node, config, ru, at) = (
        NodeId(node),
        ConfigId(10 + node),
        RuId(ru),
        SimTime::from_ms(ms),
    );
    match kind {
        "load" => TraceEvent::LoadEnd {
            job,
            node,
            config,
            ru,
            at,
        },
        "reuse" => TraceEvent::Reuse {
            job,
            node,
            config,
            ru,
            at,
        },
        "start" => TraceEvent::ExecStart {
            job,
            node,
            config,
            ru,
            at,
        },
        "end" => TraceEvent::ExecEnd {
            job,
            node,
            config,
            ru,
            at,
        },
        "kill" => TraceEvent::NodeKilled { job, node, ru, at },
        "checkpoint" => TraceEvent::NodeCheckpointed { job, node, ru, at },
        _ => unreachable!("unknown node event kind {kind}"),
    }
}

fn ru_hard_fault(ru: u16, ms: u64) -> TraceEvent {
    TraceEvent::FaultInject {
        kind: FaultKind::RuHard,
        ru: RuId(ru),
        config: None,
        at: SimTime::from_ms(ms),
    }
}

/// One JPEG job (chain n0 → n1 → n2 → n3, 21/15/26/17 ms) whose nodes
/// move between RUs around three hard faults. n0 is killed on RU1 and
/// re-placed on RU3 before RU1 dies; n1 is placed on RU2 and still
/// waiting when RU2 dies, so it is re-placed on RU4; n0 and n2 have
/// both finished on RU3 when RU3 dies. `n1_replaced` = false lets n1
/// run on dead RU2 without the re-placement.
fn hard_fault_trace(n1_replaced: bool) -> Trace {
    let mut events = vec![
        TraceEvent::GraphStart {
            job: 0,
            at: SimTime::ZERO,
        },
        node_event("load", 0, 0, 0, 0),
        node_event("start", 0, 0, 0, 0),
        node_event("kill", 0, 0, 0, 1),
        node_event("load", 0, 0, 2, 4),
        node_event("start", 0, 0, 2, 4),
        node_event("load", 0, 1, 1, 5),
        ru_hard_fault(0, 6),
        ru_hard_fault(1, 6),
        node_event("end", 0, 0, 2, 25),
    ];
    if n1_replaced {
        events.extend([
            node_event("load", 0, 1, 3, 25),
            node_event("start", 0, 1, 3, 25),
            node_event("end", 0, 1, 3, 40),
        ]);
    } else {
        events.extend([
            node_event("start", 0, 1, 1, 25),
            node_event("end", 0, 1, 1, 40),
        ]);
    }
    events.extend([
        node_event("load", 0, 2, 2, 40),
        node_event("start", 0, 2, 2, 40),
        node_event("end", 0, 2, 2, 66),
        node_event("load", 0, 3, 3, 66),
        node_event("start", 0, 3, 3, 66),
        ru_hard_fault(2, 67),
        node_event("end", 0, 3, 3, 83),
        TraceEvent::GraphEnd {
            job: 0,
            at: SimTime::from_ms(83),
        },
    ]);
    Trace { events }
}

fn jpeg_jobs(count: usize) -> Vec<JobSpec> {
    let jpeg = Arc::new(benchmarks::jpeg());
    (0..count)
        .map(|_| JobSpec::new(Arc::clone(&jpeg)))
        .collect()
}

/// The violation texts of checker `name` in `report`.
fn violations_of(report: &RegistryReport, name: &str) -> Vec<String> {
    report
        .outcome(name)
        .expect("checker enabled")
        .violations
        .iter()
        .map(|v| v.0.clone())
        .collect()
}

/// An RU hard fault revokes only the live placement on that RU: a node
/// that moved to another RU keeps its new placement, and a node that
/// finished on the dead RU stays finished.
#[test]
fn hard_fault_resets_only_the_faulted_rus_live_placement() {
    let jobs = jpeg_jobs(1);
    let latency = SimDuration::from_ms(4);
    let registry = CheckerRegistry::standard();
    let trace = hard_fault_trace(true);
    let report = registry.run(&CheckContext::new(&trace, &jobs, latency, None));
    for name in ["task-lifecycle", "precedence", "no-lost-work"] {
        assert_eq!(violations_of(&report, name), Vec::<String>::new(), "{name}");
    }
    // 5 starts × 3 + 4 ends × 2 + 1 kill + 4 lives + 1 execution total.
    assert_eq!(report.outcome("task-lifecycle").unwrap().fired, 29);

    let trace = hard_fault_trace(false);
    let report = registry.run(&CheckContext::new(&trace, &jobs, latency, None));
    assert_eq!(
        violations_of(&report, "task-lifecycle"),
        [
            "node n1 of job 0 started without load or reuse",
            "node n1 of job 0 executes on RU2 but was placed on RUNone",
        ]
    );
}

/// One JPEG job whose n0 (21 ms) is checkpointed on RU1 at 5 ms, so
/// its resumed run owes 16 ms + 4 ms restore = 20 ms. It is re-placed
/// on RU2, which dies at 12 ms — with the resumed run in flight when
/// `started`, before it began otherwise — and finally runs 16–36 ms on
/// RU3, followed by n1..n3 on RU3.
fn checkpoint_then_hard_fault_trace(started: bool) -> Trace {
    let mut events = vec![
        TraceEvent::GraphStart {
            job: 0,
            at: SimTime::ZERO,
        },
        node_event("load", 0, 0, 0, 0),
        node_event("start", 0, 0, 0, 0),
        node_event("checkpoint", 0, 0, 0, 5),
        node_event("load", 0, 0, 1, 10),
    ];
    if started {
        events.push(node_event("start", 0, 0, 1, 10));
    }
    events.extend([
        ru_hard_fault(1, 12),
        node_event("load", 0, 0, 2, 16),
        node_event("start", 0, 0, 2, 16),
        node_event("end", 0, 0, 2, 36),
        node_event("load", 0, 1, 2, 40),
        node_event("start", 0, 1, 2, 40),
        node_event("end", 0, 1, 2, 55),
        node_event("load", 0, 2, 2, 59),
        node_event("start", 0, 2, 2, 59),
        node_event("end", 0, 2, 2, 85),
        node_event("load", 0, 3, 2, 89),
        node_event("start", 0, 3, 2, 89),
        node_event("end", 0, 3, 2, 106),
        TraceEvent::GraphEnd {
            job: 0,
            at: SimTime::from_ms(106),
        },
    ]);
    Trace { events }
}

/// A hard fault on the RU of a checkpointed node that has not restarted
/// yet costs only the placement: the node still owes its remainder plus
/// the restore penalty. A resumed run the fault kills mid-run replays
/// in full, so finishing it in the remainder's time is flagged.
#[test]
fn checkpoint_remainder_survives_an_idle_hard_fault() {
    let jobs = jpeg_jobs(1);
    let latency = SimDuration::from_ms(4);
    let registry = CheckerRegistry::standard();
    let trace = checkpoint_then_hard_fault_trace(false);
    let report = registry.run(&CheckContext::new(&trace, &jobs, latency, None));
    assert_eq!(
        violations_of(&report, "task-lifecycle"),
        Vec::<String>::new()
    );

    let trace = checkpoint_then_hard_fault_trace(true);
    let report = registry.run(&CheckContext::new(&trace, &jobs, latency, None));
    assert_eq!(
        violations_of(&report, "task-lifecycle"),
        ["node n0 of job 0 ran 20ms (expected 21ms)"]
    );
}

/// Ids outside the workload — an unknown job, and nodes beyond their
/// job's graph — are tracked like any other node and reported, in
/// `(job, node)` order, without a panic.
#[test]
fn ids_outside_the_workload_are_reported() {
    let jobs = jpeg_jobs(2);
    let mut trace = hard_fault_trace(true);
    trace.events.extend([
        node_event("reuse", 9, 0, 0, 90),
        node_event("start", 9, 0, 0, 90),
        node_event("end", 9, 0, 0, 91),
        TraceEvent::GraphEnd {
            job: 9,
            at: SimTime::from_ms(91),
        },
        node_event("reuse", 9, 1, 1, 92),
        node_event("reuse", 0, 7, 0, 92),
        node_event("start", 0, 7, 0, 92),
        node_event("end", 0, 7, 0, 93),
        node_event("reuse", 0, 8, 1, 93),
        node_event("reuse", 1, 0, 2, 93),
    ]);
    let cx = CheckContext::new(&trace, &jobs, SimDuration::from_ms(4), None);
    let report = CheckerRegistry::standard().run(&cx);
    assert_eq!(
        violations_of(&report, "task-lifecycle"),
        [
            "exec end for node n0 of unknown job 9",
            "exec end for node n7 beyond the graph of job 0",
            "node 8 of job 0 never completed execution",
            "node 0 of job 1 never completed execution",
            "node 1 of job 9 never completed execution",
            "trace has 6 executions, workload requires 4",
        ]
    );
    assert_eq!(
        violations_of(&report, "precedence"),
        [
            "exec start for node n0 of unknown job 9",
            "exec start for node n7 beyond the graph of job 0",
        ]
    );
    assert_eq!(
        violations_of(&report, "no-lost-work"),
        ["graph end at 91ms for unknown job 9"]
    );
}
