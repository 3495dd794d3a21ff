//! `sweep_batch`: the paper's batch setting at the acceptance scale.
//!
//! A uniform-random 1,000-application sequence over the multimedia
//! suite (JPEG, MPEG-1, Hough; 15 configurations), every job arriving
//! at t = 0, run on the {LRU, Local LFD(1) + Skip Events, LFD} ×
//! {4, 8, 16} RU grid with concrete policy types and the schedule trace
//! off. This is where the victim decision and the reuse index do the
//! most work: at 4 and 8 RUs the 15-configuration working set does not
//! fit and every load past the first few evicts; at 16 RUs it fits and
//! no decision is ever made, so a decision-layer change should move
//! the 4/8-RU cells and leave the 16-RU cells alone.

use crate::trace::{SpanId, Tracer};
use crate::unit::{check_repeat, cold_run, HostCounts, Pass, SimTotals, Workload};
use rtr_core::{LfdPolicy, LruPolicy, TemplateRegistry};
use rtr_manager::{JobSpec, ManagerConfig, RunStats, SimError, SimulationOutcome};
use rtr_taskgraph::{TaskGraph, TemplateSet};
use rtr_workload::{CellConfig, PolicyKind, SequenceModel};
use std::sync::Arc;
use std::time::Instant;

/// Applications per cell.
pub const APPS: usize = 1_000;
/// RU counts of the grid.
pub const RU_COUNTS: [usize; 3] = [4, 8, 16];
/// Policies of the grid.
pub const POLICIES: [PolicyKind; 3] = [
    PolicyKind::Lru,
    PolicyKind::LocalLfd {
        window: 1,
        skip: true,
    },
    PolicyKind::Lfd,
];

/// One grid cell with its prepared jobs.
pub struct Cell {
    /// Policy of the cell.
    kind: PolicyKind,
    /// Manager configuration the cell implies (trace off).
    pub cfg: ManagerConfig,
    /// Jobs, with mobility attached when the policy skips.
    jobs: Vec<JobSpec>,
    reference: Option<RunStats>,
}

impl Cell {
    /// Prepares the cell's jobs through the shared registry.
    pub fn new(
        kind: PolicyKind,
        rus: usize,
        sequence: &[Arc<TaskGraph>],
        registry: &TemplateRegistry,
    ) -> Cell {
        let cfg = CellConfig::new(kind, rus).manager_config();
        let jobs = sequence
            .iter()
            .map(|g| {
                registry
                    .instantiate(g, &cfg, kind.needs_mobility())
                    .expect("suite graphs have feasible reference schedules")
            })
            .collect();
        Cell {
            kind,
            cfg,
            jobs,
            reference: None,
        }
    }

    /// Label, e.g. `LRU@4`.
    pub fn label(&self) -> String {
        format!("{}@{}", self.kind.label(), self.cfg.rus)
    }

    /// One cold run of the cell under `root`, with a fresh policy of
    /// the cell's concrete type.
    pub fn run(
        &self,
        templates: &Arc<TemplateSet>,
        tracer: &mut Tracer,
        root: SpanId,
        host: &mut HostCounts,
    ) -> Result<SimulationOutcome, SimError> {
        let (cfg, jobs) = (&self.cfg, &self.jobs[..]);
        match self.kind {
            PolicyKind::Lru => cold_run(cfg, templates, jobs, LruPolicy::new(), tracer, root, host),
            PolicyKind::LocalLfd { window, skip } => {
                let policy = if skip {
                    LfdPolicy::local_with_skip(window)
                } else {
                    LfdPolicy::local(window)
                };
                cold_run(cfg, templates, jobs, policy, tracer, root, host)
            }
            PolicyKind::Lfd => cold_run(
                cfg,
                templates,
                jobs,
                LfdPolicy::oracle(),
                tracer,
                root,
                host,
            ),
            other => unreachable!("the sweep grid has no {other:?} cell"),
        }
    }
}

/// The suite as shared templates.
pub fn suite() -> Vec<Arc<TaskGraph>> {
    rtr_taskgraph::benchmarks::multimedia_suite()
        .into_iter()
        .map(Arc::new)
        .collect()
}

/// Design time through `registry`: intern every template, then build
/// each cell's jobs. Traced as one aggregated `instantiate` span.
pub fn instantiate_cells(
    suite: &[Arc<TaskGraph>],
    sequence: &[Arc<TaskGraph>],
    registry: &TemplateRegistry,
    tracer: &mut Tracer,
    root: SpanId,
) -> Vec<Cell> {
    let span = tracer.open("core.registry.instantiate", Some(root));
    for g in suite {
        registry.artifacts(g);
    }
    let cells: Vec<Cell> = POLICIES
        .iter()
        .flat_map(|&kind| RU_COUNTS.iter().map(move |&rus| (kind, rus)))
        .map(|(kind, rus)| Cell::new(kind, rus, sequence, registry))
        .collect();
    tracer.close(span, (cells.len() * sequence.len()) as u64);
    cells
}

/// The `sweep_batch` workload.
pub struct SweepBatch {
    registry: TemplateRegistry,
    templates: Arc<TemplateSet>,
    cells: Vec<Cell>,
}

impl Workload for SweepBatch {
    fn setup(seed: u64, tracer: &mut Tracer, root: SpanId) -> Self {
        let suite = suite();
        let sequence = SequenceModel::UniformRandom.generate(&suite, APPS, seed);
        let registry = TemplateRegistry::new();
        let cells = instantiate_cells(&suite, &sequence, &registry, tracer, root);
        SweepBatch {
            templates: registry.template_set(),
            registry,
            cells,
        }
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for cell in &mut self.cells {
            let started = Instant::now();
            let root = tracer.unit("unit.sweep_cell");
            let out = cell.run(&self.templates, tracer, root, &mut pass.host);
            tracer.close(root, 1);
            let secs = started.elapsed().as_secs_f64();
            let label = cell.label();
            let result = match out {
                Ok(out) => match check_repeat(&mut cell.reference, &out.stats, &label) {
                    None => Ok(out.stats.graph_completions.len() as u64),
                    Some(e) => Err(e),
                },
                Err(e) => Err(format!("{label}: {e}")),
            };
            pass.record(secs, result);
        }
        pass
    }

    fn sim(&self) -> SimTotals {
        let mut t = SimTotals::default();
        for stats in self.cells.iter().filter_map(|c| c.reference.as_ref()) {
            t.add(stats, true);
        }
        t
    }

    fn templates(&self) -> usize {
        self.registry.templates()
    }
}
