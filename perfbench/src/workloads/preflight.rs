//! Pre-flight check: the paper's Fig. 2 cells must reproduce before
//! anything is timed.
//!
//! TG1, TG2, TG2, TG1, TG2 on 4 RUs with a 4 ms latency. The paper
//! reports LRU 16.7% reuse / 22 ms overhead, LFD 41.7% / 11 ms and
//! Local LFD(1) 41.7% / 15 ms.

use crate::trace::Tracer;
use crate::unit::{cold_run, HostCounts};
use rtr_core::{LfdPolicy, LruPolicy};
use rtr_manager::{JobSpec, Lookahead, ManagerConfig, RunStats, SimError};
use rtr_sim::SimDuration;
use rtr_taskgraph::TemplateSet;
use std::sync::Arc;

/// The Fig. 2 job sequence.
pub fn fig2_jobs() -> Vec<JobSpec> {
    let tg1 = Arc::new(rtr_taskgraph::benchmarks::fig2_tg1());
    let tg2 = Arc::new(rtr_taskgraph::benchmarks::fig2_tg2());
    [&tg1, &tg2, &tg2, &tg1, &tg2]
        .iter()
        .map(|g| JobSpec::new(Arc::clone(g)))
        .collect()
}

/// One Fig. 2 cell, by name.
pub fn fig2_cell(name: &str, tracer: &mut Tracer) -> Result<RunStats, SimError> {
    let jobs = fig2_jobs();
    let templates = Arc::new(TemplateSet::new());
    let base = ManagerConfig::paper_default();
    let root = tracer.unit("unit.fig2");
    let mut host = HostCounts::default();
    let out = match name {
        "LRU" => {
            let cfg = base.with_lookahead(Lookahead::None);
            cold_run(
                &cfg,
                &templates,
                &jobs,
                LruPolicy::new(),
                tracer,
                root,
                &mut host,
            )
        }
        "LFD" => {
            let cfg = base.with_lookahead(Lookahead::All);
            cold_run(
                &cfg,
                &templates,
                &jobs,
                LfdPolicy::oracle(),
                tracer,
                root,
                &mut host,
            )
        }
        "Local LFD(1)" => {
            let cfg = base.with_lookahead(Lookahead::Graphs(1));
            cold_run(
                &cfg,
                &templates,
                &jobs,
                LfdPolicy::local(1),
                tracer,
                root,
                &mut host,
            )
        }
        other => panic!("no Fig. 2 cell named {other}"),
    };
    tracer.close(root, 1);
    out.map(|o| o.stats)
}

/// `(cell, reuse %, overhead ms)` as the paper prints them.
pub const FIG2: [(&str, f64, u64); 3] = [
    ("LRU", 16.7, 22),
    ("LFD", 41.7, 11),
    ("Local LFD(1)", 41.7, 15),
];

/// Runs the three cells untraced; one failure line per cell that does
/// not reproduce the paper.
pub fn check() -> Vec<String> {
    let mut tracer = Tracer::new(false);
    let mut failures = Vec::new();
    for (name, reuse_pct, overhead_ms) in FIG2 {
        match fig2_cell(name, &mut tracer) {
            Ok(s) => {
                let reuse = (s.reuse_rate_pct() * 10.0).round() / 10.0;
                let overhead = s.total_overhead();
                if reuse != reuse_pct || overhead != SimDuration::from_ms(overhead_ms) {
                    failures.push(format!(
                        "Fig. 2 {name}: {reuse}% / {overhead}, paper {reuse_pct}% / {overhead_ms} ms"
                    ));
                }
            }
            Err(e) => failures.push(format!("Fig. 2 {name}: {e}")),
        }
    }
    failures
}
