//! Command line of the benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Runs the Fig. 2 pre-flight, sets the workload up, then runs passes
//! until `--seconds` have gone, setting the workload up afresh at even
//! intervals between passes (the median of the set-ups is `setup_s`).
//! With `--trace 0` every pass is untraced and the end-to-end metrics
//! are reported; with `--trace 1` traced and untraced passes alternate
//! and the per-layer metrics are reported. The last line of standard
//! output is one JSON object; the line before it is the run record,
//! also written to `perfbench/out/`. Any failed output check makes the
//! exit code 1.

use perfbench::summary::{median, Summary};
use perfbench::trace::Tracer;
use perfbench::unit::{ratio, HostCounts, Pass, Workload};
use perfbench::workloads::fleet::FleetSoak;
use perfbench::workloads::preflight;
use perfbench::workloads::stream::StreamChecked;
use perfbench::workloads::sweep::SweepBatch;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-ups per run, spread evenly over `--seconds` so that their median
/// does not hang on the host's speed at one instant; `setup_s` is their
/// median. A run whose passes are long takes fewer.
const SETUPS: u32 = 15;
/// Minimum share of unit-run wall time the layer spans must cover.
const MIN_COVERAGE_PCT: f64 = 90.0;
/// Seed kept out of tuning, for confirming a claimed change.
const HELD_OUT_SEED: u64 = 20_261_017;
/// Distinct failure lines kept in the run record.
const MAX_FAILURE_LINES: usize = 20;

const WORKLOADS: [&str; 3] = ["sweep_batch", "stream_checked", "fleet_soak"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Fastest time of each unit run over the passes of one kind (traced or
/// untraced), with the jobs it completes.
#[derive(Default)]
struct Best {
    secs: Vec<f64>,
    jobs: Vec<u64>,
}

impl Best {
    fn add(&mut self, pass: &Pass) {
        if self.secs.is_empty() {
            self.secs = vec![f64::INFINITY; pass.units.len()];
            self.jobs = vec![0; pass.units.len()];
        }
        for (k, u) in pass.units.iter().enumerate() {
            self.secs[k] = self.secs[k].min(u.secs);
            self.jobs[k] = u.jobs;
        }
    }

    /// Jobs per second with every unit run at its fastest.
    fn jobs_per_s(&self) -> f64 {
        self.jobs.iter().sum::<u64>() as f64 / self.secs.iter().sum::<f64>()
    }
}

/// Everything one run measured.
struct Measured {
    setup_s: Vec<f64>,
    /// Jobs per second of each untraced pass.
    plain: Vec<f64>,
    /// Fastest unit runs of the untraced passes.
    plain_best: Best,
    /// Fastest unit runs of the traced passes.
    traced_best: Best,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    host: HostCounts,
    sim: perfbench::unit::SimTotals,
    templates: usize,
    tracer: Tracer,
}

fn measure<W: Workload>(args: &Args) -> Measured {
    let mut failures = preflight::check();
    let mut failed = failures.len() as u64;
    let mut attempted = preflight::FIG2.len() as u64;

    let mut tracer = Tracer::new(args.trace);
    let mut setup_s = Vec::with_capacity(SETUPS as usize);
    let setup = |tracer: &mut Tracer, setup_s: &mut Vec<f64>| {
        tracer.set_on(args.trace);
        let root = tracer.open("setup", None);
        let t0 = Instant::now();
        let w = W::setup(args.seed, tracer, root);
        setup_s.push(t0.elapsed().as_secs_f64());
        tracer.close(root, 1);
        w
    };
    let mut w = setup(&mut tracer, &mut setup_s);

    let mut plain = Vec::new();
    let (mut plain_best, mut traced_best) = (Best::default(), Best::default());
    let mut host = HostCounts::default();
    let start = Instant::now();
    let run_time = Duration::from_secs(args.seconds);
    let deadline = start + run_time;
    // Totals of the instance a fresh set-up replaced, to compare with
    // the fresh instance's once it has run a pass.
    let mut replaced = None;
    for i in 0.. {
        let traced_pass = args.trace && i % 2 == 1;
        tracer.set_on(traced_pass);
        let t0 = Instant::now();
        let pass = w.pass(&mut tracer);
        let secs = t0.elapsed().as_secs_f64();
        attempted += pass.units.len() as u64;
        failed += pass.failures.len() as u64;
        if traced_pass {
            traced_best.add(&pass);
            host = pass.host;
        } else {
            plain.push(pass.jobs() as f64 / secs);
            plain_best.add(&pass);
        }
        for line in pass.failures {
            if failures.len() < MAX_FAILURE_LINES && !failures.contains(&line) {
                failures.push(line);
            }
        }
        if let Some(before) = replaced.take() {
            attempted += 1;
            if w.sim() != before {
                failed += 1;
                failures.push("a fresh set-up simulated other totals than the first".into());
            }
        }
        let now = Instant::now();
        if now >= deadline && (!args.trace || !traced_best.secs.is_empty()) {
            break;
        }
        let taken = setup_s.len() as u32;
        if taken < SETUPS && now >= start + run_time * taken / SETUPS {
            // The fresh set-up starts after the last one's inputs are
            // freed, from the same allocator state.
            replaced = Some(w.sim());
            drop(w);
            w = setup(&mut tracer, &mut setup_s);
        }
    }
    tracer.set_on(args.trace);
    Measured {
        setup_s,
        plain,
        plain_best,
        traced_best,
        attempted,
        failed,
        failures,
        host,
        sim: w.sim(),
        templates: w.templates(),
        tracer,
    }
}

/// One reported metric: the reported value, its unit and the samples
/// it comes from (one when the metric is exact).
struct Metric {
    value: f64,
    unit: &'static str,
    samples: Vec<f64>,
}

fn exact(unit: &'static str, value: f64) -> Metric {
    Metric {
        value,
        unit,
        samples: vec![value],
    }
}

fn end_to_end(m: &Measured) -> BTreeMap<&'static str, Metric> {
    let mut out = BTreeMap::new();
    out.insert(
        "jobs_per_s",
        Metric {
            value: m.plain_best.jobs_per_s(),
            unit: "1/s",
            samples: m.plain.clone(),
        },
    );
    out.insert(
        "setup_s",
        Metric {
            value: median(&m.setup_s),
            unit: "s",
            samples: m.setup_s.clone(),
        },
    );
    out.insert("peak_rss_mb", exact("MB", peak_rss_mb()));
    out.insert("sim_reuse_pct", exact("%", m.sim.reuse_pct()));
    out.insert("sim_overhead_pct", exact("%", m.sim.overhead_pct()));
    out
}

/// Span name of each timed layer and the metric its self time feeds.
const LAYERS: [(&str, &str); 12] = [
    ("core.registry.instantiate", "core.registry.instantiate_s"),
    ("manager.new", "manager.new_s"),
    ("manager.submit", "manager.submit_s"),
    ("manager.run", "manager.run_self_s"),
    ("core.policy.select_victim", "core.policy.select_victim_s"),
    ("manager.outcome", "manager.outcome_s"),
    ("manager.validate", "manager.validate_s"),
    ("manager.fleet.new", "manager.fleet.new_s"),
    ("manager.fleet.submit", "manager.fleet.submit_s"),
    ("manager.fleet.drain", "manager.fleet.drain_s"),
    ("manager.fleet.run", "manager.fleet.run_s"),
    ("manager.fleet.outcome", "manager.fleet.outcome_s"),
];

fn per_layer(m: &Measured) -> BTreeMap<&'static str, Metric> {
    let layers = m.tracer.layers();
    let mut out = BTreeMap::new();
    for (span, metric) in LAYERS {
        let self_s = layers.get(span).map_or(0.0, |t| t.self_s);
        out.insert(metric, exact("s", self_s));
    }
    let (h, s) = (&m.host, &m.sim);
    let count = |v: u64| exact("count", v as f64);
    out.insert("core.registry.templates", count(m.templates as u64));
    out.insert("manager.submit_calls", count(h.submit_calls));
    out.insert("core.policy.select_victim_calls", count(h.select_calls));
    out.insert(
        "core.policy.decisions_per_load",
        exact("ratio", ratio(h.select_calls, s.loads)),
    );
    out.insert("core.policy.callback_calls", count(h.callback_calls));
    out.insert("manager.validate.assertions", count(h.assertions));
    out.insert("manager.trace.events", count(h.trace_events));
    out.insert("manager.fleet.admitted", count(h.fleet_admitted));
    out.insert("manager.fleet.rejected", count(h.fleet_rejected));
    out.insert(
        "manager.fleet.admit_ratio",
        exact(
            "ratio",
            ratio(h.fleet_admitted, h.fleet_admitted + h.fleet_rejected),
        ),
    );
    out.insert("hw.loads", count(s.loads));
    out.insert("hw.reuses", count(s.reuses));
    out.insert("manager.skips", count(s.skips));
    out.insert("manager.stalls", count(s.stalls));
    out.insert("manager.prefetch.issued", count(s.prefetch_issued));
    out.insert("manager.prefetch.hits", count(s.prefetch_hits));
    out.insert(
        "manager.prefetch.hit_ratio",
        exact("ratio", ratio(s.prefetch_hits, s.prefetch_completed)),
    );
    out.insert("manager.faults.injected", count(s.faults_injected));
    out.insert("manager.faults.retries", count(s.faults_retries));
    out.insert("manager.qos.preemptions", count(s.preemptions));
    out.insert("sim.makespan_ms", exact("ms", s.makespan_us as f64 / 1e3));
    out.insert("trace.coverage_pct", exact("%", m.tracer.coverage_pct()));
    out.insert(
        "trace.overhead_pct",
        exact(
            "%",
            (m.plain_best.jobs_per_s() / m.traced_best.jobs_per_s() - 1.0) * 100.0,
        ),
    );
    out
}

/// The process's memory high-water mark (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, when it is a git repository.
fn commit(root: &Path) -> String {
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// A JSON number; JSON has no NaN or infinity.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let m = match args.workload.as_str() {
        "sweep_batch" => measure::<SweepBatch>(&args),
        "stream_checked" => measure::<StreamChecked>(&args),
        _ => measure::<FleetSoak>(&args),
    };

    let mut correct = m.failed == 0;
    let metrics = if args.trace {
        let coverage = m.tracer.coverage_pct();
        if coverage < MIN_COVERAGE_PCT {
            eprintln!(
                "perfbench: layer spans cover {coverage:.1}% of unit-run wall time, \
                 below {MIN_COVERAGE_PCT}%"
            );
            correct = false;
        }
        per_layer(&m)
    } else {
        end_to_end(&m)
    };
    for line in &m.failures {
        eprintln!("perfbench: check failed: {line}");
    }

    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let out_dir = manifest.join("out");
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::create_dir_all(&out_dir);

    // The run record: provenance plus median, quartiles and sample
    // count of every metric.
    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"rustc\": {}, \"commit\": {}, \
         \"samples\": {}, \"attempted\": {}, \"failed\": {}, \"failed_pct\": {}, \"failures\": [{}], \
         \"metrics\": {{",
        quote(&args.workload),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        quote(env!("PERFBENCH_RUSTC")),
        quote(&commit(manifest.parent().unwrap_or(&manifest))),
        m.plain.len(),
        m.attempted,
        m.failed,
        num(ratio(m.failed, m.attempted) * 100.0),
        m.failures.iter().map(|f| quote(f)).collect::<Vec<_>>().join(", "),
    );
    let mut final_metrics = Vec::new();
    for (i, (name, metric)) in metrics.iter().enumerate() {
        let s = Summary::of(&metric.samples);
        let _ = write!(
            record,
            "{}{}: {{\"value\": {}, \"unit\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            if i == 0 { "" } else { ", " },
            quote(name),
            num(metric.value),
            quote(metric.unit),
            num(s.median),
            num(s.q1),
            num(s.q3),
            s.n,
        );
        final_metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(name),
            num(metric.value),
            quote(metric.unit)
        ));
    }
    record.push_str("}}}");
    let _ = std::fs::write(out_dir.join(format!("record-{tag}.json")), &record);
    if args.trace {
        let path = out_dir.join(format!("trace-{tag}.json"));
        let written = std::fs::File::create(&path).and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            m.tracer.write_chrome(&mut w)?;
            std::io::Write::flush(&mut w)
        });
        if let Err(e) = written {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }

    println!("{record}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.failed,
        final_metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
