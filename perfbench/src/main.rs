//! perfbench: the xcbc workspace's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <svc|provision|sched-saturated|sched-light> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Set-up generates the workload's inputs from the seed. Then
//! single-threaded iterations run until the time is up, each preceded by
//! a calibration pass and followed by another set-up pass; each builds
//! fresh engines, so every iteration does the same work, and each
//! iteration's output must pass its check and match the first
//! iteration's digest. `--trace 0` prints the end-to-end metrics, times
//! as medians scaled to the reference host by the calibration passes;
//! `--trace 1` re-drives the workload through each layer's public
//! functions under spans and prints the per-layer metrics. The last line
//! of standard output is one JSON object. See README.md.

mod calib;
mod host;
mod provision;
mod sched;
mod svc;
mod trace;

use calib::{Calibration, HostSpeed, Pass};
use host::SchedStat;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use xcbc::sim::{
    self_profiler, SECTION_DEPSOLVE, SECTION_SCHED_RUN, SECTION_SVC_SERVE, SECTION_TRACE_ANALYZE,
    SECTION_TRACE_RENDER,
};
use xcbc::yum::Fnv64;

/// Fewest timed iterations per run, however long they take.
const MIN_ITERATIONS: usize = 5;

/// Every workload, in the order BENCHMARK.json lists them.
pub const WORKLOADS: [&str; 4] = ["svc", "provision", "sched-saturated", "sched-light"];

/// End-to-end metrics (`--trace 0`) with their units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("work_per_s", "1/s"),
    ("iter_p50_ms", "ms"),
    ("cpu_p50_ms", "ms"),
    ("ok_ratio", "1"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (`--trace 1`) with their units. Every workload
/// prints all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("svc.admit_ms", "ms"),
    ("svc.execute_ms", "ms"),
    ("svc.journal_ms", "ms"),
    ("svc.replay_ms", "ms"),
    ("svc.accepted", "count"),
    ("svc.rejected", "count"),
    ("svc.journal_bytes", "bytes"),
    ("yum.key_ms", "ms"),
    ("yum.lookup_ms", "ms"),
    ("yum.solve_ms", "ms"),
    ("yum.insert_ms", "ms"),
    ("yum.cache_hits", "count"),
    ("yum.cache_misses", "count"),
    ("yum.cache_entries", "count"),
    ("yum.hit_ratio", "1"),
    ("yum.solve_calls", "count"),
    ("yum.solve_errors", "count"),
    ("core.overlay_ms", "ms"),
    ("core.overlay_calls", "count"),
    ("core.day_one_ms", "ms"),
    ("rocks.install_ms", "ms"),
    ("rocks.nodes", "count"),
    ("fault.checkpoint_ms", "ms"),
    ("fault.resumes", "count"),
    ("cluster.telemetry_ms", "ms"),
    ("cluster.telemetry_events", "count"),
    ("sim.render_ms", "ms"),
    ("sim.trace_bytes", "bytes"),
    ("sim.analyze_ms", "ms"),
    ("sim.spans", "count"),
    ("sched.gen_ms", "ms"),
    ("sched.build_ms", "ms"),
    ("sched.submit_ms", "ms"),
    ("sched.drain_ms", "ms"),
    ("sched.report_ms", "ms"),
    ("sched.events", "count"),
    ("sched.jobs", "count"),
    ("sched.queue_max", "count"),
    ("sched.queue_mean", "count"),
    ("selfprof.depsolve_calls", "count"),
    ("selfprof.depsolve_ms", "ms"),
    ("selfprof.sched_run_calls", "count"),
    ("selfprof.sched_run_ms", "ms"),
    ("selfprof.trace_render_calls", "count"),
    ("selfprof.trace_render_ms", "ms"),
    ("selfprof.trace_analyze_calls", "count"),
    ("selfprof.trace_analyze_ms", "ms"),
    ("selfprof.svc_serve_calls", "count"),
    ("selfprof.svc_serve_ms", "ms"),
    ("host.runq_wait_ms", "ms"),
    ("host.runq_wait_ratio", "1"),
    ("host.timeslices", "count"),
    ("host.trace_overhead_ratio", "1"),
    ("host.unattributed_ratio", "1"),
    ("host.loadavg_1m", "1"),
    ("host.cal_pass_ms", "ms"),
    ("host.wall_p50_ms", "ms"),
];

/// Self-profiler sections cross-checked in the traced run, with the
/// metric-name stem each is reported under.
const SELFPROF_SECTIONS: [(&str, &str); 5] = [
    (SECTION_DEPSOLVE, "depsolve"),
    (SECTION_SCHED_RUN, "sched_run"),
    (SECTION_TRACE_RENDER, "trace_render"),
    (SECTION_TRACE_ANALYZE, "trace_analyze"),
    (SECTION_SVC_SERVE, "svc_serve"),
];

/// Input size: the benchmark's own, or a tiny one for its tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Tiny,
    Full,
}

impl Size {
    pub fn pick(self, tiny: usize, full: usize) -> usize {
        match self {
            Size::Tiny => tiny,
            Size::Full => full,
        }
    }
}

/// What one iteration produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Digest of every output the iteration rendered.
    pub digest: u64,
    /// Work units done (`work_per_s` numerator).
    pub work: u64,
    /// Operations attempted and, of those, completed successfully.
    pub attempted: u64,
    pub ok: u64,
    /// The output check's verdict.
    pub check: Result<(), String>,
}

impl Outcome {
    /// An iteration that produced nothing checkable.
    pub fn failed(attempted: u64, why: String) -> Outcome {
        Outcome {
            digest: 0,
            work: 0,
            attempted,
            ok: 0,
            check: Err(why),
        }
    }
}

/// One workload, its inputs already generated.
pub trait Workload {
    /// One untraced iteration on fresh engines.
    fn run(&self) -> Outcome;
    /// The same iteration driven through each layer's public functions
    /// under spans; must give the same digest as [`run`](Self::run).
    fn run_traced(&self, tracer: &mut Tracer) -> Outcome;
    /// The digest the program's own entry point gives for these inputs,
    /// where it has one the iteration does not already call.
    fn reference_digest(&self) -> Option<u64> {
        None
    }
}

/// FNV-1a over texts, each followed by a separator byte.
pub fn digest_texts<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fnv64::new();
    for text in texts {
        h.write(text.as_bytes()).write(&[0xff]);
    }
    h.finish()
}

/// splitmix64: the next value of a seeded sequence.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub fn setup(workload: &str, seed: u64, size: Size) -> Option<Box<dyn Workload>> {
    Some(match workload {
        "svc" => Box::new(svc::setup(seed, size)),
        "provision" => Box::new(provision::setup(seed, size)),
        "sched-saturated" => Box::new(sched::setup(sched::Load::Saturated, seed, size)),
        "sched-light" => Box::new(sched::setup(sched::Load::Light, seed, size)),
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {})",
            WORKLOADS.join(", ")
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The run's verdict and metrics, printed as the last line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    /// The last traced iteration's spans as JSON lines.
    spans: Option<String>,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Set-up passes: the first one's inputs are the run's; later passes
/// follow the iterations, so set-up meets the same host phases the
/// iterations and calibration passes do.
struct Setups {
    workload: String,
    seed: u64,
    size: Size,
    seconds: Vec<f64>,
}

impl Setups {
    fn new(args: &Args, size: Size) -> Setups {
        Setups {
            workload: args.workload.clone(),
            seed: args.seed,
            size,
            seconds: Vec::new(),
        }
    }

    fn pass(&mut self) -> Box<dyn Workload> {
        let start = Instant::now();
        let w = setup(&self.workload, self.seed, self.size)
            .expect("workload name checked by parse_args");
        self.seconds.push(start.elapsed().as_secs_f64());
        w
    }

    /// Median set-up time in reference-host seconds.
    fn median_s(&self, speed: &HostSpeed) -> f64 {
        speed.wall_ms(median(&self.seconds) * 1e9) / 1e3
    }
}

/// One timed iteration with its host readings.
struct Iteration {
    /// The calibration pass run just before it.
    cal: Pass,
    wall_ns: u64,
    /// CPU time of every thread of the process.
    cpu_ns: u64,
    /// The calling thread's scheduler counters.
    sched: SchedStat,
    outcome: Outcome,
}

/// A calibration pass, one timed iteration, then one more set-up pass.
fn iterate(w: &dyn Workload, cal: &Calibration, setups: &mut Setups) -> Iteration {
    let pass = cal.pass();
    let before = SchedStat::now();
    let cpu_before = host::process_cpu_ns();
    let start = Instant::now();
    let outcome = black_box(w.run());
    let wall_ns = start.elapsed().as_nanos() as u64;
    let it = Iteration {
        cal: pass,
        wall_ns,
        cpu_ns: host::process_cpu_ns().saturating_sub(cpu_before),
        sched: SchedStat::now().since(before),
        outcome,
    };
    drop(black_box(setups.pass()));
    it
}

/// Tallies iterations against the first one's digest.
#[derive(Default)]
struct Tally {
    reference: Option<u64>,
    attempted: u64,
    failed: u64,
    ok: u64,
    problems: Vec<String>,
}

impl Tally {
    fn record(&mut self, label: &str, outcome: &Outcome) {
        self.attempted += outcome.attempted;
        let reference = *self.reference.get_or_insert(outcome.digest);
        let verdict = match &outcome.check {
            Err(e) => Err(e.clone()),
            Ok(()) if outcome.digest != reference => Err(format!(
                "output digest {:016x} != first {reference:016x}",
                outcome.digest
            )),
            Ok(()) => Ok(()),
        };
        match verdict {
            Ok(()) => self.ok += outcome.ok,
            Err(e) => {
                self.failed += outcome.attempted;
                self.problems.push(format!("{label}: {e}"));
            }
        }
    }

    fn correct(&self) -> bool {
        self.problems.is_empty() && self.attempted > 0
    }
}

fn run_untraced(args: &Args, size: Size) -> Report {
    eprintln!("host: loadavg={}", host::loadavg());
    let mut setups = Setups::new(args, size);
    let w = setups.pass();
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut iters: Vec<Iteration> = Vec::new();
    let mut tally = Tally::default();
    let cal = Calibration::new();
    while iters.len() < MIN_ITERATIONS || start.elapsed() < budget {
        let it = iterate(w.as_ref(), &cal, &mut setups);
        eprintln!(
            "iter {}: cal_wall_ns={} wall_ns={} process_cpu_ns={} thread_on_cpu_ns={} runq_wait_ns={} timeslices={}",
            iters.len(),
            it.cal.wall_ns,
            it.wall_ns,
            it.cpu_ns,
            it.sched.on_cpu_ns,
            it.sched.wait_ns,
            it.sched.slices
        );
        tally.record(&format!("iteration {}", iters.len()), &it.outcome);
        iters.push(it);
    }
    if let (Some(want), Some(got)) = (w.reference_digest(), tally.reference) {
        if want != got {
            tally.problems.push(format!(
                "output digest {got:016x} != the program's own {want:016x}"
            ));
        }
    }
    for p in &tally.problems {
        eprintln!("FAILED {p}");
    }

    let speed = HostSpeed::of(&iters.iter().map(|i| i.cal).collect::<Vec<_>>());
    let walls: Vec<f64> = iters.iter().map(|i| i.wall_ns as f64).collect();
    let iter_ms = speed.wall_ms(median(&walls));
    let cpus: Vec<f64> = iters.iter().map(|i| i.cpu_ns as f64).collect();
    let work = iters[0].outcome.work as f64;
    let metrics = vec![
        ("work_per_s", "1/s", work / (iter_ms / 1e3)),
        ("iter_p50_ms", "ms", iter_ms),
        ("cpu_p50_ms", "ms", speed.cpu_ms(median(&cpus))),
        (
            "ok_ratio",
            "1",
            tally.ok as f64 / tally.attempted.max(1) as f64,
        ),
        ("peak_rss_mb", "MB", host::peak_rss_mb()),
        ("setup_s", "s", setups.median_s(&speed)),
    ];
    eprintln!(
        "iterations: {}, calibration pass median {:.3} ms",
        iters.len(),
        speed.wall_ns / 1e6
    );
    Report {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        spans: None,
    }
}

fn selfprof_totals() -> BTreeMap<&'static str, (u64, f64)> {
    self_profiler()
        .snapshot()
        .into_iter()
        .map(|(section, h)| (section, (h.count(), h.sum_seconds())))
        .collect()
}

fn run_traced(args: &Args, size: Size) -> Report {
    let loadavg_1m = host::loadavg_1m();
    eprintln!("host: loadavg={}", host::loadavg());
    let mut setups = Setups::new(args, size);
    let w = setups.pass();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut tally = Tally::default();

    // untraced iterations first: the digest to reproduce, the wall time
    // tracing is compared with, and the host's run-queue wait
    let cal = Calibration::new();
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    let mut plain: Vec<Iteration> = Vec::new();
    while plain.len() < 2 || start.elapsed() < budget.mul_f64(0.4) {
        let it = iterate(w.as_ref(), &cal, &mut setups);
        passes.push(it.cal);
        tally.record(&format!("untraced iteration {}", plain.len()), &it.outcome);
        plain.push(it);
    }

    let profiled_before = selfprof_totals();
    let mut per_iter: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut counts: Option<BTreeMap<&'static str, f64>> = None;
    let mut traced_walls = Vec::new();
    let mut unattributed = Vec::new();
    let mut last_spans = String::new();
    let start = Instant::now();
    while traced_walls.len() < 2 || start.elapsed() < budget.mul_f64(0.6) {
        passes.push(cal.pass());
        let mut tracer = Tracer::new();
        let begin = Instant::now();
        let outcome = black_box(w.run_traced(&mut tracer));
        let wall_ns = begin.elapsed().as_nanos() as f64;
        let label = format!("traced iteration {}", traced_walls.len());
        tally.record(&label, &outcome);
        for name in tracer.names() {
            if !PER_LAYER
                .iter()
                .any(|(m, _)| m.strip_suffix("_ms") == Some(name))
            {
                tally
                    .problems
                    .push(format!("span {name} has no per-layer metric"));
            }
        }
        match &counts {
            None => counts = Some(tracer.counts().clone()),
            Some(c) if c != tracer.counts() => {
                tally
                    .problems
                    .push(format!("{label}: counts differ from the first"));
            }
            Some(_) => {}
        }
        for (name, ms) in tracer.self_ms() {
            per_iter.entry(name).or_default().push(ms);
        }
        unattributed.push((wall_ns - tracer.attributed_ns() as f64).max(0.0) / wall_ns);
        traced_walls.push(wall_ns);
        last_spans = tracer.jsonl();
    }
    let traced_n = traced_walls.len() as f64;
    let profiled_after = selfprof_totals();
    for p in &tally.problems {
        eprintln!("FAILED {p}");
    }

    // layer times in reference-host ms, like the end-to-end times
    let speed = HostSpeed::of(&passes);
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    for (name, samples) in &per_iter {
        values.insert(format!("{name}_ms"), speed.wall_ms(median(samples) * 1e6));
    }
    for (name, value) in counts.unwrap_or_default() {
        values.insert(name.to_string(), value);
    }
    for (section, stem) in SELFPROF_SECTIONS {
        let (c0, s0) = profiled_before.get(section).copied().unwrap_or((0, 0.0));
        let (c1, s1) = profiled_after.get(section).copied().unwrap_or((0, 0.0));
        values.insert(
            format!("selfprof.{stem}_calls"),
            (c1 - c0) as f64 / traced_n,
        );
        values.insert(
            format!("selfprof.{stem}_ms"),
            speed.wall_ms((s1 - s0) * 1e9 / traced_n),
        );
    }
    if args.workload.starts_with("sched") {
        values.insert("sched.gen_ms".to_string(), setups.median_s(&speed) * 1e3);
    }
    let plain_wall = median(&plain.iter().map(|i| i.wall_ns as f64).collect::<Vec<_>>());
    let waits: Vec<f64> = plain.iter().map(|i| i.sched.wait_ns as f64).collect();
    let slices: Vec<f64> = plain.iter().map(|i| i.sched.slices as f64).collect();
    values.insert("host.runq_wait_ms".into(), median(&waits) / 1e6);
    values.insert("host.runq_wait_ratio".into(), median(&waits) / plain_wall);
    values.insert("host.timeslices".into(), median(&slices));
    values.insert(
        "host.trace_overhead_ratio".into(),
        median(&traced_walls) / plain_wall,
    );
    values.insert("host.unattributed_ratio".into(), median(&unattributed));
    values.insert("host.loadavg_1m".into(), loadavg_1m);
    values.insert("host.cal_pass_ms".into(), speed.wall_ns / 1e6);
    values.insert("host.wall_p50_ms".into(), plain_wall / 1e6);

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
        .collect();
    Report {
        correct: tally.correct(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        spans: Some(last_spans),
    }
}

/// The last traced iteration's spans go to `perfbench-out/`, beside the
/// working directory's other build and run outputs.
fn write_spans(workload: &str, jsonl: &str) {
    let dir = std::path::Path::new("perfbench-out");
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(dir.join(format!("spans-{workload}.jsonl")), jsonl));
    if let Err(e) = written {
        eprintln!("perfbench: spans not written: {e}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = host::nproc();
    match host::pin_to_current_cpu() {
        Some(cpu) => eprintln!("host: nproc={nproc}, pinned to cpu {cpu}"),
        None => eprintln!("host: nproc={nproc}, not pinned to a cpu"),
    }
    let report = if args.trace {
        run_traced(&args, Size::Full)
    } else {
        run_untraced(&args, Size::Full)
    };
    if let Some(spans) = &report.spans {
        write_spans(&args.workload, spans);
    }
    for (name, unit, value) in &report.metrics {
        println!("{name:<28} {value:>16.6} {unit}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: &str, seed: u64, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed,
            seconds: 0.05,
            trace,
        }
    }

    #[test]
    fn every_workload_runs_clean_at_tiny_size_on_two_seeds() {
        for workload in WORKLOADS {
            for seed in [1, 2] {
                let report = run_untraced(&args(workload, seed, false), Size::Tiny);
                assert!(report.correct, "{workload} seed {seed}");
                assert_eq!(report.failed, 0);
                let names: Vec<_> = report.metrics.iter().map(|(n, u, _)| (*n, *u)).collect();
                assert_eq!(names, END_TO_END.to_vec());
                for (name, _, value) in &report.metrics {
                    assert!(*value > 0.0, "{workload} {name} = {value}");
                }
                let json = report.json();
                for (name, unit) in END_TO_END {
                    assert!(
                        json.contains(&format!("\"{name}\": {{\"value\": ")),
                        "{json}"
                    );
                    assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{json}");
                }

                let traced = run_traced(&args(workload, seed, true), Size::Tiny);
                assert!(traced.correct, "{workload} seed {seed} traced");
                let names: Vec<_> = traced.metrics.iter().map(|(n, u, _)| (*n, *u)).collect();
                assert_eq!(names, PER_LAYER.to_vec());
            }
        }
    }

    #[test]
    fn a_failed_check_fails_every_operation_of_its_iteration() {
        let mut tally = Tally::default();
        let good = Outcome {
            digest: 7,
            work: 10,
            attempted: 10,
            ok: 9,
            check: Ok(()),
        };
        tally.record("first", &good);
        tally.record(
            "bad check",
            &Outcome {
                check: Err("tampered".into()),
                ..good.clone()
            },
        );
        tally.record(
            "other digest",
            &Outcome {
                digest: 8,
                ..good.clone()
            },
        );
        assert_eq!((tally.attempted, tally.failed, tally.ok), (30, 20, 9));
        assert!(!tally.correct());
    }

    #[test]
    fn bad_arguments_are_refused() {
        let strs = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(parse_args(&strs(&[
            "--workload",
            "svc",
            "--seed",
            "1",
            "--seconds",
            "1"
        ]))
        .is_err());
        assert!(parse_args(&strs(&[
            "--workload",
            "mars",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_err());
        assert!(parse_args(&strs(&[
            "--workload",
            "svc",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ]))
        .is_ok());
    }

    #[test]
    fn benchmark_json_names_what_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let listed = json.matches("\"name\": ").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for workload in WORKLOADS {
            assert!(json.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(json.contains(&entry), "{entry}");
        }
    }
}
