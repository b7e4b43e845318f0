//! # perfbench
//!
//! The repository's benchmark.  It times the simulator from outside, through
//! the public entry points of its crates, on four workloads:
//!
//! * `paper-fig10` — the `fig10 --full` matrix (50 workloads × ABO-Only,
//!   ABO+ACB-RFM, TPRAC at NRH 1024; 4 cores × 150 k instructions): benign,
//!   row-hit-rich traffic through the CPU cluster, FR-FCFS, DRAM issue and
//!   the event wheel.
//! * `topology-scaling` — the `scaling --full` matrix (1/2/4 channels × 1/2
//!   ranks × 8 engines × 3 intensities): multi-channel fan-out, per-channel
//!   wheel slots, 8-way fork groups and PARA's cold legs.
//! * `adversarial` — the `attacks --quick` matrix (6 patterns × 8 engines ×
//!   NRH 256/1024, plus the ECC cells): ACT/RFM/ABO-heavy hammering through
//!   `pracleak`'s per-tick runner, with no CPU cluster, wheel or forks.
//! * `serve-mixed` — an in-process `Server` with two closed-loop TCP
//!   clients sending store hits, `get`s and a small share of misses.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-fig10 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Campaign workloads run one worker over a fixed sample of each matrix's
//! work units, pass after pass (see `campaigns`).  The seed is XOR-mixed
//! into every cell's own seed and seeds the serve request stream; seed 0
//! reproduces the registered matrices, whose record digests
//! `golden/seed0.txt` pins.  `--trace 0` prints the end-to-end metrics;
//! `--trace 1` makes one pass (or a fixed number of requests) with spans
//! around each public call, prints the per-layer metrics and writes the
//! spans to `.bench_trace/`.  The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the lines above it carry
//! the host stamp and notes.  Set `PERFBENCH_COMMIT` to stamp the result
//! with the commit under test.  `--write-golden FILE` regenerates the
//! digests after a change that is meant to alter simulated results.

mod campaigns;
mod kernels;
mod serve;
mod stats;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use campaign::CampaignRunner;
use serde_json::{Map, Value};

use crate::campaigns::{Matrix, MATRICES};
use crate::stats::{digest, median, peak_rss_mb, percentile, seed_mix, Rng};
use crate::trace::Tracer;

/// Per-layer values by metric name (intermediate sums included).
pub type Layers = BTreeMap<&'static str, f64>;

const SERVE: &str = "serve-mixed";
/// Set-ups per run; `setup_s` is their median.
const CAMPAIGN_SETUP_REPS: usize = 25;
const SERVE_SETUP_REPS: usize = 3;
/// Record digests of every cell at seed 0: `<workload> <campaign>/<cell> <hex>`.
const GOLDEN: &str = include_str!("../golden/seed0.txt");
/// The paper's Fig. 10 mean normalised performance per setup.
const PAPER_FIG10: [(&str, f64); 3] = [
    ("ABO-Only", 1.0),
    ("ABO+ACB-RFM", 0.993),
    ("TPRAC w/o Targeted", 0.966),
];

/// End-to-end metrics (`--trace 0`), with units.  An op is one pass over
/// the sample on the campaign workloads and one client round trip on
/// `serve-mixed`, whose rates and percentiles are medians over one-second
/// windows: identical work varies by ±15% in host time on a shared host.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("cells_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
];

/// Per-layer metrics (`--trace 1`), with units.  Times are self times of
/// spans over the traced sample; counts come from the simulated results
/// and repeat exactly for a seed.
const PER_LAYER: [(&str, &str); 52] = [
    ("sim.run_ms", "ms"),
    ("sim.build_ms", "ms"),
    ("sim.cycles", "count"),
    ("sim.ns_per_cycle", "ns"),
    ("sim.incomplete_runs", "count"),
    ("snapshot.fork_ms", "ms"),
    ("snapshot.forks", "count"),
    ("snapshot.cold_legs", "count"),
    ("snapshot.shared_cycles", "count"),
    ("snapshot.fork_ratio", "ratio"),
    ("workloads.trace_gen_ms", "ms"),
    ("workloads.trace_ops", "count"),
    ("attack.run_ms", "ms"),
    ("attack.cycles", "count"),
    ("attack.ns_per_cycle", "ns"),
    ("attack.accesses", "count"),
    ("attack.cycles_per_activation", "ratio"),
    ("attack.rfms", "count"),
    ("memctrl.requests", "count"),
    ("memctrl.row_hit_rate", "ratio"),
    ("memctrl.rfms.tb", "count"),
    ("memctrl.rfms.abo", "count"),
    ("memctrl.rfms.acb", "count"),
    ("memctrl.rfms.periodic", "count"),
    ("memctrl.rfms.para", "count"),
    ("memctrl.avg_latency_ns", "ns"),
    ("dram.activations", "count"),
    ("dram.alerts", "count"),
    ("dram.max_row_counter", "count"),
    ("event.wheel_round_ns.1ch", "ns"),
    ("event.wheel_round_ns.4ch", "ns"),
    ("memctrl.scan_ns", "ns"),
    ("dram.min_reduce_ns", "ns"),
    ("campaign.exec_ms", "ms"),
    ("campaign.overhead_ms", "ms"),
    ("campaign.unit_p50_ms", "ms"),
    ("campaign.unit_max_ms", "ms"),
    ("campaign.artifact_ms", "ms"),
    ("campaign.key_us", "us"),
    ("store.open_ms", "ms"),
    ("store.insert_us_p50", "us"),
    ("store.lookup_us_p50", "us"),
    ("store.records", "count"),
    ("store.bytes", "bytes"),
    ("serve.respond_hit_us_p50", "us"),
    ("serve.respond_miss_us_p50", "us"),
    ("serve.transport_us_p50", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.error_replies", "count"),
    ("serve.miss_p99_us", "us"),
    ("trace.overhead_ms", "ms"),
    ("trace.coverage", "ratio"),
];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_golden: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        write_golden: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--write-golden" => args.write_golden = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let known = MATRICES.iter().any(|m| m.workload == args.workload) || args.workload == SERVE;
    if args.write_golden.is_none() && !known {
        return Err(format!(
            "--workload must be one of paper-fig10, topology-scaling, adversarial, {SERVE}"
        ));
    }
    Ok(args)
}

/// What one run reports.
#[derive(Debug, Default)]
struct Report {
    attempted: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(".bench_work").join(format!("run-{}", std::process::id()));
    let _ = fs::remove_dir_all(&work);
    let outcome = match &args.write_golden {
        Some(path) => write_golden(path, &work).map(|()| None),
        None => run(&args, &work).map(Some),
    };
    let _ = fs::remove_dir_all(&work);
    let _ = fs::remove_dir(".bench_work");
    match outcome {
        Ok(Some(report)) => {
            print_report(&args, &report);
            ExitCode::SUCCESS
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("perfbench: {error}");
            ExitCode::FAILURE
        }
    }
}

fn golden_for(workload: &str) -> HashMap<String, u64> {
    GOLDEN
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            if fields.next()? != workload {
                return None;
            }
            let cell = fields.next()?.to_string();
            Some((cell, u64::from_str_radix(fields.next()?, 16).ok()?))
        })
        .collect()
}

fn run(args: &Args, work: &Path) -> io::Result<Report> {
    let mix = seed_mix(args.seed);
    let golden = (args.seed == 0).then(|| golden_for(&args.workload));
    let mut report = Report::default();
    if let Some(matrix) = MATRICES.iter().find(|m| m.workload == args.workload) {
        run_campaign(matrix, args, mix, golden.as_ref(), work, &mut report)?;
    } else {
        run_serve(args, mix, golden.as_ref(), work, &mut report)?;
    }
    Ok(report)
}

/// Runs `prepare` `reps` times on fresh directories; returns the last
/// set-up and the median set-up time in seconds.
fn repeated_setup<T>(
    reps: usize,
    work: &Path,
    mut prepare: impl FnMut(&Path) -> io::Result<T>,
) -> io::Result<(T, f64, Vec<T>)> {
    let mut times = Vec::new();
    let mut all = Vec::new();
    for rep in 0..reps {
        let started = Instant::now();
        all.push(prepare(&work.join(format!("setup{rep}")))?);
        times.push(started.elapsed().as_secs_f64());
    }
    let last = all.pop().expect("at least one set-up");
    Ok((last, median(&times), all))
}

fn run_campaign(
    matrix: &Matrix,
    args: &Args,
    mix: u64,
    golden: Option<&HashMap<String, u64>>,
    work: &Path,
    report: &mut Report,
) -> io::Result<()> {
    let (prep, setup_s, earlier) = repeated_setup(CAMPAIGN_SETUP_REPS, work, |dir| {
        campaigns::prepare(matrix, mix, dir)
    })?;
    let store_open_ms = median(
        &earlier
            .iter()
            .chain([&prep])
            .map(|p| p.store_open_ms)
            .collect::<Vec<_>>(),
    );
    drop(earlier);
    let mut rng = Rng::new(args.seed ^ 0xC01D);

    if args.trace {
        let mut layers = Layers::new();
        run_kernels(&mut layers);
        let mut tracer = Tracer::new(Instant::now());
        let (runs, mismatches) = campaigns::run_traced(&prep, &mut tracer, &mut layers)?;
        let verdicts = campaigns::check_runs(matrix, &prep.campaign, &runs, golden, &mut rng);
        report.attempted = verdicts.attempted;
        report.problems = verdicts.problems;
        report.problems.extend(mismatches);
        layers.insert("store.open_ms", store_open_ms);
        let self_ms = tracer.self_ms();
        let covered: f64 = self_ms
            .iter()
            .filter(|(name, _)| **name != "campaign.unit")
            .map(|(_, ms)| ms)
            .sum();
        let traced_ms = layers.get("trace.traced_ms").copied().unwrap_or(0.0);
        layers.insert("trace.coverage", covered / traced_ms.max(f64::MIN_POSITIVE));
        finish_layers(&mut layers, &tracer);
        report.notes.push(write_spans(&tracer, args)?);
        report.metrics = select(&PER_LAYER, &layers);
        return Ok(());
    }

    let passes = campaigns::run_untraced(&prep, args.seconds)?;
    report.notes.push(peak_rss_note()?);
    let of_passes =
        |f: &dyn Fn(&campaigns::Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let pass_us: Vec<f64> = passes.iter().map(|pass| pass.wall_s * 1e6).collect();
    report.metrics.insert("setup_s", setup_s);
    report.metrics.insert(
        "cells_per_s",
        of_passes(&|pass| pass.cells() as f64 / pass.wall_s),
    );
    report.metrics.insert("op_p50_us", median(&pass_us));
    report
        .metrics
        .insert("op_p99_us", percentile(&pass_us, 99.0));
    let pass_ticks = of_passes(&|pass| {
        pass.runs
            .iter()
            .filter_map(|run| run.records.as_ref().ok())
            .map(|records| campaigns::reported_ticks(records))
            .sum::<f64>()
            / pass.wall_s
    });
    let pass_cells = passes[0].cells();
    let sample_units = passes[0].runs.len();
    let runs: Vec<campaigns::UnitRun> = passes.into_iter().flat_map(|pass| pass.runs).collect();
    let verdicts = campaigns::check_runs(matrix, &prep.campaign, &runs, golden, &mut rng);
    report.attempted = verdicts.attempted;
    report.problems = verdicts.problems;
    report.notes.push(format!(
        "ops: {} passes over a sample of {sample_units} work units ({pass_cells} cells); op = one pass; pass walls {:?} s",
        pass_us.len(),
        pass_us.iter().map(|us| (us / 1e3).round() / 1e3).collect::<Vec<_>>()
    ));
    report.notes.push(format!(
        "sim_mcycles_per_s = {:.4} Mcycle/s (simulated DRAM cycles of every reported leg per host second)",
        pass_ticks / 1e6
    ));
    if matrix.workload == "paper-fig10" {
        let means = campaigns::mean_normalized(&runs[..sample_units]);
        for (setup, paper) in PAPER_FIG10 {
            let (model, cells) = means.get(setup).copied().unwrap_or((f64::NAN, 0));
            report.notes.push(format!(
                "fig10 mean normalized performance, {setup}: model {model:.4} over the {cells} sampled cells, paper ~{paper:.3}"
            ));
        }
        report.notes.push(
            "the model is not validated against hardware; the paper figures are context only and gate nothing"
                .into(),
        );
    }
    Ok(())
}

fn run_serve(
    args: &Args,
    mix: u64,
    golden: Option<&HashMap<String, u64>>,
    work: &Path,
    report: &mut Report,
) -> io::Result<()> {
    let (prep, setup_s, earlier) = repeated_setup(SERVE_SETUP_REPS, work, |dir| {
        serve::prepare(mix, args.seed, dir)
    })?;
    drop(earlier);
    if let Some(golden) = golden {
        report.attempted += prep.prefill.len() as u64;
        for (name, metrics) in &prep.prefill {
            if golden.get(name) != Some(&digest(metrics)) {
                report.problems.push(format!(
                    "prefilled {name}: metrics differ from the seed-0 digest"
                ));
            }
        }
    }

    if args.trace {
        let mut layers = Layers::new();
        run_kernels(&mut layers);
        let mut tracer = Tracer::new(Instant::now());
        let outcome = serve::run_traced(&prep, args.seed, &mut tracer, &mut layers)?;
        report.attempted += outcome.requests as u64;
        report.problems.extend(outcome.problems);
        finish_layers(&mut layers, &tracer);
        report.notes.push(write_spans(&tracer, args)?);
        report.metrics = select(&PER_LAYER, &layers);
        return Ok(());
    }

    let outcome = serve::run_untraced(&prep, args.seed, args.seconds)?;
    report.notes.push(peak_rss_note()?);
    report.attempted += outcome.requests as u64;
    report.problems.extend(outcome.problems);
    let of_windows = |pick: fn(&(f64, f64, f64)) -> f64| {
        median(&outcome.windows.iter().map(pick).collect::<Vec<_>>())
    };
    report.metrics.insert("setup_s", setup_s);
    report.metrics.insert("cells_per_s", of_windows(|w| w.0));
    report.metrics.insert("op_p50_us", of_windows(|w| w.1));
    report.metrics.insert("op_p99_us", of_windows(|w| w.2));
    report.notes.push(format!(
        "ops: {} requests from 2 closed-loop clients in {:.3} s; op = one client round trip; one cell per reply; rates and percentiles are medians over {} one-second windows",
        outcome.requests, outcome.wall_s, outcome.windows.len()
    ));
    report.notes.push(format!(
        "queries_per_s = {:.1} 1/s, query_p50_us = {:.1} us, query_p99_us = {:.1} us, miss_p99_us = {:.1} us over {} misses",
        outcome.requests as f64 / outcome.wall_s,
        median(&outcome.rt_us),
        percentile(&outcome.rt_us, 99.0),
        percentile(&outcome.miss_rt_us, 99.0),
        outcome.miss_rt_us.len()
    ));
    Ok(())
}

fn run_kernels(layers: &mut Layers) {
    layers.insert("event.wheel_round_ns.1ch", kernels::wheel_round_ns(1));
    layers.insert("event.wheel_round_ns.4ch", kernels::wheel_round_ns(4));
    layers.insert("memctrl.scan_ns", kernels::scan_ns());
    layers.insert("dram.min_reduce_ns", kernels::min_reduce_ns());
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Derives the reported per-layer metrics from span self times and the
/// accumulated counts.
fn finish_layers(layers: &mut Layers, tracer: &Tracer) {
    let self_ms = tracer.self_ms();
    for (span, metric) in [
        ("sim.run", "sim.run_ms"),
        ("sim.build", "sim.build_ms"),
        ("snapshot.fork", "snapshot.fork_ms"),
        ("workloads.trace_gen", "workloads.trace_gen_ms"),
        ("attack.run", "attack.run_ms"),
        ("campaign.artifact", "campaign.artifact_ms"),
    ] {
        layers.insert(metric, self_ms.get(span).copied().unwrap_or(0.0));
    }
    for (span, metric) in [
        ("campaign.key", "campaign.key_us"),
        ("store.insert", "store.insert_us_p50"),
        ("store.lookup", "store.lookup_us_p50"),
    ] {
        layers.insert(metric, median(&tracer.durations_us(span)));
    }
    let get = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    let derived = [
        (
            "sim.ns_per_cycle",
            ratio(get("sim.run_ms") * 1e6, get("sim.cycles")),
        ),
        (
            "attack.ns_per_cycle",
            ratio(get("attack.run_ms") * 1e6, get("attack.cycles")),
        ),
        (
            "attack.cycles_per_activation",
            ratio(get("attack.cycles"), get("attack.activations")),
        ),
        (
            "memctrl.row_hit_rate",
            ratio(get("memctrl.row_hits"), get("memctrl.row_accesses")),
        ),
        (
            "memctrl.avg_latency_ns",
            ratio(get("memctrl.latency_ticks") * 0.25, get("memctrl.requests")),
        ),
        (
            "snapshot.fork_ratio",
            ratio(
                get("snapshot.forks"),
                get("snapshot.forks") + get("snapshot.cold_legs"),
            ),
        ),
        (
            "trace.overhead_ms",
            get("trace.traced_ms") - get("trace.untraced_ms"),
        ),
    ];
    layers.extend(derived);
}

/// Picks `names` out of `values`, 0 for a layer the workload never enters.
fn select(names: &[(&'static str, &str)], values: &Layers) -> BTreeMap<&'static str, f64> {
    names
        .iter()
        .map(|(name, _)| (*name, values.get(name).copied().unwrap_or(0.0)))
        .collect()
}

fn write_spans(tracer: &Tracer, args: &Args) -> io::Result<String> {
    let path = Path::new(".bench_trace").join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&path)?;
    Ok(format!("spans: {}", path.display()))
}

/// Peak resident set, reported but not gated: on the campaign workloads it
/// is bimodal for identical work (each runner call spawns its worker
/// thread, whose malloc arena is reused or not depending on when the
/// previous one exited).
fn peak_rss_note() -> io::Result<String> {
    Ok(format!(
        "peak_rss_mb = {:.3} MB (process VmHWM after the timed phase; informational)",
        peak_rss_mb()?
    ))
}

fn host_stamp() -> String {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unset".into());
    format!(
        "host: cpu=\"{cpu}\" logical_cores={cores} rustc=\"{}\" commit={commit} (compare results from one host only)",
        env!("PERFBENCH_RUSTC_VERSION")
    )
}

fn print_report(args: &Args, report: &Report) {
    let units = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut text = String::new();
    let _ = writeln!(text, "{}", host_stamp());
    let _ = writeln!(
        text,
        "workload: {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &report.notes {
        let _ = writeln!(text, "{note}");
    }
    for problem in report.problems.iter().take(10) {
        let _ = writeln!(text, "check failed: {problem}");
    }
    // A cell can fail more than one check; count it once.
    let failed = (report.problems.len() as u64).min(report.attempted);
    let _ = writeln!(
        text,
        "failed_share = {} ({failed} of {} operations)",
        ratio(failed as f64, report.attempted as f64),
        report.attempted
    );
    let mut metrics = Map::new();
    for (name, unit) in units {
        let value = report.metrics.get(name).copied().unwrap_or(0.0);
        let _ = writeln!(text, "{name} = {value} {unit}");
        let mut entry = Map::new();
        entry.insert("value".into(), value.into());
        entry.insert("unit".into(), (*unit).into());
        metrics.insert((*name).into(), Value::Object(entry));
    }
    let mut result = Map::new();
    result.insert("correct".into(), (failed == 0).into());
    result.insert("attempted".into(), report.attempted.max(1).into());
    result.insert("failed".into(), failed.into());
    result.insert("metrics".into(), Value::Object(metrics));
    print!("{text}");
    println!("{}", Value::Object(result));
}

/// Regenerates the seed-0 digests: every cell of the three campaign
/// matrices, run through the runner as `prac-bench run` runs it, and the
/// serve prefill.
fn write_golden(path: &Path, work: &Path) -> io::Result<()> {
    let mut text = String::new();
    for matrix in &MATRICES {
        let campaign = campaigns::build_campaign(matrix.campaign, matrix.full, 0);
        let summary = CampaignRunner::new().with_workers(2).run(&campaign)?;
        for record in summary.records {
            let _ = writeln!(
                text,
                "{} {}/{} {:016x}",
                matrix.workload,
                campaign.name,
                record.scenario.name,
                digest(&record.metrics)
            );
        }
    }
    let prep = serve::prepare(0, 0, &work.join("golden"))?;
    let mut prefill: Vec<_> = serve::prefill_digests(&prep).into_iter().collect();
    prefill.sort();
    for (name, digest) in prefill {
        let _ = writeln!(text, "{SERVE} {name} {digest:016x}");
    }
    fs::write(path, text)
}
