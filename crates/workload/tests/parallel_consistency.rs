//! Determinism of the parallel sweep substrate: `parallel_map` must be
//! observationally identical to a sequential map for any item/worker
//! combination, and a whole `Scenario` must tabulate identically
//! whether its policy cells run sequentially or fanned out.

use proptest::prelude::*;
use rtr_manager::{FaultPlan, FleetSpec, PlacementKind, PreemptionMode};
use rtr_workload::arrivals::ArrivalProcess;
use rtr_workload::parallel::parallel_map;
use rtr_workload::{QosSpec, Scenario};

/// A cheap but order-sensitive function: mixes the value with its
/// position so any reordering or dropped/duplicated item shows up.
fn mix(idx_value: (usize, u64)) -> u64 {
    let (idx, value) = idx_value;
    let mut z = value ^ (idx as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parallel_map_equals_sequential_map(
        seed in any::<u64>(),
        items in 0usize..300,
        workers in 1usize..24,
    ) {
        let input: Vec<(usize, u64)> = (0..items)
            .map(|i| (i, seed.wrapping_add(i as u64)))
            .collect();
        let sequential: Vec<u64> = input.clone().into_iter().map(mix).collect();
        let parallel = parallel_map(input, workers, mix);
        prop_assert_eq!(parallel, sequential);
    }
}

/// Every worker count must tabulate identically, including with
/// preemption, QoS lanes, faults and a fleet on: a pooled engine that
/// leaked state from one cell into the next cell its worker runs would
/// show up as a difference between one worker (every cell on one
/// engine) and eight.
#[test]
fn scenario_tables_identical_sequential_vs_parallel() {
    let poisson = ArrivalProcess::Poisson {
        mean_gap_us: 60_000,
    };
    let stream = Scenario::streaming(4, 40, 9, poisson);
    for scenario in [
        Scenario::paper_fig9(4, 40, 9),
        stream.clone(),
        Scenario {
            preemption: PreemptionMode::Checkpoint,
            qos: QosSpec::strided(4, 1, 300),
            faults: FaultPlan::low(9),
            ..stream.clone()
        },
        Scenario {
            fleet: Some(FleetSpec {
                devices: vec![2, 4, 3],
                placement: PlacementKind::ReuseAffinity,
                quota: Some(8),
                tenants: 3,
                seed: 9,
            }),
            ..stream
        },
    ] {
        let sequential = scenario.run_with_workers(1);
        let parallel = scenario.run_with_workers(8);
        assert_eq!(
            sequential.to_markdown(),
            parallel.to_markdown(),
            "scenario {} diverged between sequential and parallel runs",
            scenario.name
        );
        assert_eq!(sequential.to_csv(), parallel.to_csv());
    }
}
