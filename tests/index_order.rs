//! Bit-exactness of the reuse index's upkeep across the QoS grid.
//!
//! The engine keeps the Dynamic List's next-occurrence index in the
//! planned service order and materialises only the segments a decision
//! can see. Neither choice may change an answer, so every cell of the
//! grid below is pinned by a digest of its serialised `RunStats` plus
//! its full trace:
//!
//! lookahead {None, Graphs(1), Graphs(3), All} × preemption {Off, Kill,
//! Checkpoint} × prefetch depth {0, 2} × {QoS `strided(4, 1, 300)`,
//! uniform}, each on a Poisson stream with resident upsets and RU hard
//! faults (`FaultPlan::low` without transient load faults), under
//! Local LFD (LFD for `All`, Local LFD (0) for `None`). A second, small
//! grid runs Slack-Aware LFD on the QoS streams, the one policy that
//! reads the per-segment owner-slack table.
//!
//! On a mismatch the test prints the whole table of actual digests.

use rtr_core::{LfdPolicy, SlackAwareLfdPolicy};
use rtr_manager::{
    simulate, FaultPlan, JobSpec, Lookahead, ManagerConfig, PreemptionMode, PrefetchConfig,
    ReplacementPolicy, SimulationOutcome,
};
use rtr_taskgraph::{benchmarks, TaskGraph};
use rtr_workload::{ArrivalProcess, QosSpec, SequenceModel};
use std::sync::Arc;

const APPS: usize = 120;
const RUS: usize = 4;
/// Below the suite's mean service time on 4 RUs, so a backlog builds
/// and the lookahead settings see different windows.
const MEAN_GAP_US: u64 = 55_000;
const SEED: u64 = 0x1D_0E_0D;

const LOOKAHEADS: [Lookahead; 4] = [
    Lookahead::None,
    Lookahead::Graphs(1),
    Lookahead::Graphs(3),
    Lookahead::All,
];
const PREEMPTIONS: [PreemptionMode; 3] = [
    PreemptionMode::Off,
    PreemptionMode::Kill,
    PreemptionMode::Checkpoint,
];
const DEPTHS: [usize; 2] = [0, 2];

/// The stream of one seed, with or without the QoS lanes.
fn stream(qos: bool) -> Vec<JobSpec> {
    let suite: Vec<Arc<TaskGraph>> = benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect();
    let sequence = SequenceModel::UniformRandom.generate(&suite, APPS, SEED);
    let arrivals = ArrivalProcess::Poisson {
        mean_gap_us: MEAN_GAP_US,
    }
    .generate(APPS, SEED ^ 0xA7);
    let classes = if qos {
        QosSpec::strided(4, 1, 300).assign(&sequence, &arrivals, RUS)
    } else {
        None
    };
    sequence
        .iter()
        .zip(&arrivals)
        .enumerate()
        .map(|(i, (g, &at))| {
            let job = JobSpec::new(Arc::clone(g)).with_arrival(at);
            match &classes {
                Some(c) => job.with_qos(c[i]),
                None => job,
            }
        })
        .collect()
}

fn config(lookahead: Lookahead, preemption: PreemptionMode, depth: usize) -> ManagerConfig {
    let low = FaultPlan::low(SEED);
    ManagerConfig::paper_default()
        .with_rus(RUS)
        .with_lookahead(lookahead)
        .with_preemption(preemption)
        .with_prefetch(PrefetchConfig::with_depth(depth))
        .with_faults(low.with_load_faults(0, low.max_retries))
        .with_trace(true)
}

fn lfd_for(lookahead: Lookahead) -> LfdPolicy {
    match lookahead {
        Lookahead::None => LfdPolicy::local(0),
        Lookahead::Graphs(n) => LfdPolicy::local(n),
        Lookahead::All => LfdPolicy::oracle(),
    }
}

fn slack_for(lookahead: Lookahead) -> SlackAwareLfdPolicy {
    match lookahead {
        Lookahead::None => SlackAwareLfdPolicy::local(0),
        Lookahead::Graphs(n) => SlackAwareLfdPolicy::local(n),
        Lookahead::All => SlackAwareLfdPolicy::oracle(),
    }
}

/// FNV-1a over the serialised stats and trace.
fn digest(out: &SimulationOutcome) -> u64 {
    let stats = serde_json::to_string(&out.stats).expect("stats serialise");
    let trace = serde_json::to_string(&out.trace).expect("trace serialises");
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stats.bytes().chain([0u8]).chain(trace.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn run(cfg: &ManagerConfig, jobs: &[JobSpec], policy: &mut dyn ReplacementPolicy) -> u64 {
    let out = simulate(cfg, jobs, policy).expect("finite repair latency: every stream completes");
    digest(&out)
}

/// Every cell's label and digest, in grid order.
fn grid() -> Vec<(String, u64)> {
    let qos = stream(true);
    let uniform = stream(false);
    let mut cells = Vec::new();
    for (name, jobs) in [("qos", &qos), ("uniform", &uniform)] {
        for la in LOOKAHEADS {
            for pre in PREEMPTIONS {
                for depth in DEPTHS {
                    let cfg = config(la, pre, depth);
                    let d = run(&cfg, jobs, &mut lfd_for(la));
                    cells.push((format!("lfd {name} {la:?} {pre:?} depth={depth}"), d));
                }
            }
        }
    }
    for la in LOOKAHEADS {
        for pre in [PreemptionMode::Off, PreemptionMode::Checkpoint] {
            let cfg = config(la, pre, 2);
            let d = run(&cfg, &qos, &mut slack_for(la));
            cells.push((format!("slack qos {la:?} {pre:?} depth=2"), d));
        }
    }
    cells
}

/// Digests in grid order.
/// Captured before the index kept the planned order incrementally
/// and bounded its materialisation; the change must not move one.
#[rustfmt::skip]
const PINNED: [u64; 56] = [
    0xb2b09bea1c11ffb8, // lfd qos None Off depth=0
    0xb2b09bea1c11ffb8, // lfd qos None Off depth=2
    0x2a1ab0d03491cd5e, // lfd qos None Kill depth=0
    0x2a1ab0d03491cd5e, // lfd qos None Kill depth=2
    0xa2e594e3d86e773d, // lfd qos None Checkpoint depth=0
    0xa2e594e3d86e773d, // lfd qos None Checkpoint depth=2
    0xe4d4c7c985065dcf, // lfd qos Graphs(1) Off depth=0
    0x54a385611eb802b8, // lfd qos Graphs(1) Off depth=2
    0x2576cf636643c73b, // lfd qos Graphs(1) Kill depth=0
    0xbe76ebbb3cbe8a3c, // lfd qos Graphs(1) Kill depth=2
    0x7af5e3c6ca150057, // lfd qos Graphs(1) Checkpoint depth=0
    0x3092fb420c202f6c, // lfd qos Graphs(1) Checkpoint depth=2
    0x18fa23d961e212a8, // lfd qos Graphs(3) Off depth=0
    0xe84bc7fa74767ad2, // lfd qos Graphs(3) Off depth=2
    0x5b5d3db4fb8f7c48, // lfd qos Graphs(3) Kill depth=0
    0x01c79de2c9f316ea, // lfd qos Graphs(3) Kill depth=2
    0x7258f987595ed31a, // lfd qos Graphs(3) Checkpoint depth=0
    0xc9af71bb7135b003, // lfd qos Graphs(3) Checkpoint depth=2
    0x1695db8f54f6bfa1, // lfd qos All Off depth=0
    0xb86f34286e68ce94, // lfd qos All Off depth=2
    0x6bbfe304569b23f3, // lfd qos All Kill depth=0
    0x915f98563c71a8d8, // lfd qos All Kill depth=2
    0xc28a0191b8c8e166, // lfd qos All Checkpoint depth=0
    0x55c7816c19b9314b, // lfd qos All Checkpoint depth=2
    0x9bde39e13833cd1f, // lfd uniform None Off depth=0
    0x9bde39e13833cd1f, // lfd uniform None Off depth=2
    0x9bde39e13833cd1f, // lfd uniform None Kill depth=0
    0x9bde39e13833cd1f, // lfd uniform None Kill depth=2
    0x9bde39e13833cd1f, // lfd uniform None Checkpoint depth=0
    0x9bde39e13833cd1f, // lfd uniform None Checkpoint depth=2
    0x7350772d1415c638, // lfd uniform Graphs(1) Off depth=0
    0x0289c0bad65ba1c2, // lfd uniform Graphs(1) Off depth=2
    0x7350772d1415c638, // lfd uniform Graphs(1) Kill depth=0
    0x0289c0bad65ba1c2, // lfd uniform Graphs(1) Kill depth=2
    0x7350772d1415c638, // lfd uniform Graphs(1) Checkpoint depth=0
    0x0289c0bad65ba1c2, // lfd uniform Graphs(1) Checkpoint depth=2
    0x21800ecff8044231, // lfd uniform Graphs(3) Off depth=0
    0x4860cc66e4cb0c3a, // lfd uniform Graphs(3) Off depth=2
    0x21800ecff8044231, // lfd uniform Graphs(3) Kill depth=0
    0x4860cc66e4cb0c3a, // lfd uniform Graphs(3) Kill depth=2
    0x21800ecff8044231, // lfd uniform Graphs(3) Checkpoint depth=0
    0x4860cc66e4cb0c3a, // lfd uniform Graphs(3) Checkpoint depth=2
    0xf762243767e4227a, // lfd uniform All Off depth=0
    0xc5f7ca5f8faa100f, // lfd uniform All Off depth=2
    0xf762243767e4227a, // lfd uniform All Kill depth=0
    0xc5f7ca5f8faa100f, // lfd uniform All Kill depth=2
    0xf762243767e4227a, // lfd uniform All Checkpoint depth=0
    0xc5f7ca5f8faa100f, // lfd uniform All Checkpoint depth=2
    0x0b89cbcb4d1bc9f5, // slack qos None Off depth=2
    0xdfc388eb6e3d903a, // slack qos None Checkpoint depth=2
    0x82c89f8f805cc227, // slack qos Graphs(1) Off depth=2
    0x8b16386eabde493b, // slack qos Graphs(1) Checkpoint depth=2
    0x1e3c08580d001193, // slack qos Graphs(3) Off depth=2
    0x8b3990696a89260a, // slack qos Graphs(3) Checkpoint depth=2
    0x65a46ea326bf5d6c, // slack qos All Off depth=2
    0x9ce86992f046b1f7, // slack qos All Checkpoint depth=2
];

#[test]
fn qos_grid_is_bit_exact() {
    let cells = grid();
    let actual: Vec<u64> = cells.iter().map(|&(_, d)| d).collect();
    if actual[..] != PINNED[..] {
        let table: String = cells
            .iter()
            .map(|(label, d)| format!("    0x{d:016x}, // {label}\n"))
            .collect();
        let moved = actual.iter().zip(&PINNED).filter(|(a, p)| a != p).count();
        panic!(
            "{moved} of {} cells moved; actual digests:\n{table}",
            actual.len()
        );
    }
}
