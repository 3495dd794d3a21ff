//! Tests of the benchmark harness itself: the summary statistics, and
//! that the traced run's policy wrapper changes no decision.

use perfbench::summary::{quantiles, Summary};
use perfbench::trace::Tracer;
use perfbench::unit::{HostCounts, Workload};
use perfbench::workloads::fleet::Soak;
use perfbench::workloads::preflight::{fig2_cell, FIG2};
use perfbench::workloads::sweep::{instantiate_cells, suite, SweepBatch};
use rtr_core::TemplateRegistry;
use rtr_workload::SequenceModel;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-12
}

#[test]
fn quartiles_match_python_exclusive_method() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
    assert_eq!(s.n, 10);
    assert!(close(s.q1, 2.75) && close(s.median, 5.5) && close(s.q3, 8.25));
    // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
    let s = Summary::of(&[5.0, 4.0, 3.0, 2.0, 1.0]);
    assert!(close(s.q1, 1.5) && close(s.median, 3.0) && close(s.q3, 4.5));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quantiles(&[2.0, 1.0], 4), vec![0.75, 1.5, 2.25]);
}

#[test]
fn summary_of_fewer_than_two_samples() {
    let one = Summary::of(&[3.5]);
    assert_eq!((one.n, one.q1, one.median, one.q3), (1, 3.5, 3.5, 3.5));
    let none = Summary::of(&[]);
    assert_eq!((none.n, none.q1, none.median, none.q3), (0, 0.0, 0.0, 0.0));
}

#[test]
fn wrapped_policy_is_decision_transparent_on_fig2() {
    for (name, _, _) in FIG2 {
        let plain = fig2_cell(name, &mut Tracer::new(false)).expect("Fig. 2 simulates");
        let mut tracer = Tracer::new(true);
        let wrapped = fig2_cell(name, &mut tracer).expect("Fig. 2 simulates");
        assert_eq!(plain, wrapped, "{name}: the wrapper changed the run");
        assert!(
            tracer
                .spans()
                .iter()
                .any(|s| s.name == "core.policy.select_victim"),
            "{name}: the traced run did not wrap the policy"
        );
    }
}

#[test]
fn wrapped_policy_is_decision_transparent_on_a_sweep_cell() {
    let suite = suite();
    let sequence = SequenceModel::UniformRandom.generate(&suite, 1_000, 7);
    let registry = TemplateRegistry::new();
    let mut tracer = Tracer::new(false);
    let root = tracer.open("setup", None);
    let cells = instantiate_cells(&suite, &sequence, &registry, &mut tracer, root);
    // LRU and Local LFD + Skip Events on 4 RUs: the cells with the most
    // decisions and the only ones with skips.
    for cell in cells.iter().filter(|c| c.cfg.rus == 4).take(2) {
        let templates = registry.template_set();
        let mut host = HostCounts::default();
        let mut off = Tracer::new(false);
        let root = off.unit("unit");
        let plain = cell.run(&templates, &mut off, root, &mut host).unwrap();
        let mut on = Tracer::new(true);
        let root = on.unit("unit");
        let wrapped = cell.run(&templates, &mut on, root, &mut host).unwrap();
        assert_eq!(plain.stats, wrapped.stats, "{}", cell.label());
        assert!(
            host.select_calls > 0,
            "{}: no decision was timed",
            cell.label()
        );
        assert_eq!(host.submit_calls, 1_000);
    }
}

#[test]
fn wrapped_boxed_policies_are_decision_transparent_on_a_fleet_soak() {
    let registry = TemplateRegistry::new();
    let mut tracer = Tracer::new(false);
    let root = tracer.open("setup", None);
    let soak = Soak::new(11, 10_000, &suite(), &registry, &mut tracer, root);
    let mut host = HostCounts::default();
    let mut off = Tracer::new(false);
    let root = off.unit("unit");
    let plain = soak.run(&mut off, root, &mut host).unwrap();
    let mut on = Tracer::new(true);
    let root = on.unit("unit");
    let wrapped = soak.run(&mut on, root, &mut host).unwrap();
    assert_eq!(plain.stats, wrapped.stats);
    assert!(
        plain.stats.rejected > 0,
        "the greedy tenant must hit its quota"
    );
    assert!(host.select_calls > 0);
}

#[test]
fn traced_pass_covers_the_unit_runs_and_repeats_the_stats() {
    let mut tracer = Tracer::new(true);
    let root = tracer.open("setup", None);
    let mut sweep = SweepBatch::setup(3, &mut tracer, root);
    tracer.close(root, 1);
    tracer.set_on(false);
    let plain = sweep.pass(&mut tracer);
    tracer.set_on(true);
    let traced = sweep.pass(&mut tracer);
    assert!(plain.failures.is_empty() && traced.failures.is_empty());
    assert_eq!(plain.jobs(), traced.jobs());
    assert_eq!(traced.units.len(), 9);
    // Every span but the roots is a layer call; the harness adds no
    // untimed work inside a unit run beyond dropping the engine.
    assert!(tracer.coverage_pct() > 50.0, "{}", tracer.coverage_pct());
    let layers = tracer.layers();
    for name in [
        "core.registry.instantiate",
        "manager.new",
        "manager.submit",
        "manager.run",
        "core.policy.select_victim",
        "manager.outcome",
    ] {
        assert!(layers.contains_key(name), "no {name} span");
    }
    assert_eq!(layers["manager.submit"].count, 9 * 1_000);
    assert_eq!(sweep.templates(), 3);
}
