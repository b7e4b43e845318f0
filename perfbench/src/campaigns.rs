//! The campaign workloads: `paper-fig10`, `topology-scaling` and
//! `adversarial`.
//!
//! A run splits the registered matrix into the work units the runner forms
//! itself (perf cells that differ only in their mitigation setup travel
//! together) and takes a fixed sample of them, spaced evenly over the
//! matrix.  The untraced run hands the runner one unit at a time through
//! `CampaignRunner::run` on one worker, pass after pass over the sample,
//! while another pass fits the time budget; each pass runs on a fresh
//! store, so no cell is ever served from the cache.  A fixed sample, rather than however
//! much of the matrix fits the budget, keeps the measured work identical
//! from run to run, so the pass time moves only with the code and the host.
//!
//! The traced run makes one pass.  Each unit runs once through the runner
//! (untraced) and once re-driven through the same public calls the grouped
//! executor makes, with a span around each call; the re-driven results must
//! reproduce the runner's records exactly.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use campaign::exec::execute;
use campaign::{
    find_campaign, ArtifactStore, CachedResult, Campaign, CampaignRunner, PerfScenario, Profile,
    ResultCache, ScenarioRecord, ScenarioSpec,
};
use dram_sim::device::DramDeviceConfig;
use dram_sim::DeviceProfile;
use prac_core::config::MitigationPolicy;
use prac_core::timing::DramTimingSummary;
use pracleak::{run_adversary, AdversaryOutcome, AttackSetup};
use serde_json::{Map, Value};
use system_sim::{
    fork_horizon, workload_traces, AttackKind, EngineKind, ExperimentConfig, MitigationSetup,
    PrefixOutcome, SystemResult, SystemSimulation,
};

use crate::stats::{digest, median, percentile, Rng};
use crate::trace::Tracer;
use crate::Layers;

/// Host nanoseconds per simulated DRAM tick (`SystemResult::execution_time_ns`).
const NS_PER_TICK: f64 = 0.25;
/// Cells re-executed cold after every run.
const COLD_SAMPLE: usize = 2;
/// Tick budget per attacker access, as the `attacks` executor sets it.
const ATTACK_TICKS_PER_ACCESS: u64 = 4_000;

/// A registered matrix and how a run walks it.
#[derive(Debug, Clone, Copy)]
pub struct Matrix {
    pub workload: &'static str,
    pub campaign: &'static str,
    pub full: bool,
    /// Work units in one pass: a fixed, evenly spaced sample of the
    /// matrix, sized so a 20-second run repeats it seven or eight times.
    /// Identical cells vary by ±15% in host time on a shared host, so a
    /// run reports the median of many short passes.
    pub sample: usize,
}

pub const MATRICES: [Matrix; 3] = [
    Matrix {
        workload: "paper-fig10",
        campaign: "fig10",
        full: true,
        sample: 5,
    },
    Matrix {
        workload: "topology-scaling",
        campaign: "scaling",
        full: true,
        sample: 6,
    },
    Matrix {
        workload: "adversarial",
        campaign: "attacks",
        full: false,
        sample: 24,
    },
];

/// XORs the run's seed mix into every seeded cell.
pub fn reseed(campaign: &mut Campaign, mix: u64) {
    for scenario in &mut campaign.scenarios {
        match &mut scenario.spec {
            ScenarioSpec::Perf(perf) => perf.seed ^= mix,
            ScenarioSpec::Attack { seed, .. }
            | ScenarioSpec::SideChannel { seed, .. }
            | ScenarioSpec::Covert { seed, .. } => *seed ^= mix,
            _ => {}
        }
    }
}

/// Builds a registered campaign with the seed mix applied.
pub fn build_campaign(name: &str, full: bool, mix: u64) -> Campaign {
    let profile = if full {
        Profile::full()
    } else {
        Profile::quick()
    };
    let mut campaign = find_campaign(name, &profile).expect("the campaign is registered");
    reseed(&mut campaign, mix);
    campaign
}

/// The runner's grouping key: perf cells group on their canonical spec
/// without the setup; every other cell is a unit of its own.
fn group_key(spec: &ScenarioSpec) -> Option<String> {
    if !matches!(spec, ScenarioSpec::Perf(_)) {
        return None;
    }
    match spec.to_json() {
        Value::Object(mut map) => {
            map.remove("setup");
            Some(Value::Object(map).to_string())
        }
        _ => None,
    }
}

/// The runner's work units, in registry order.
fn plan_units(campaign: &Campaign) -> Vec<Vec<usize>> {
    let mut units: Vec<Vec<usize>> = Vec::new();
    let mut group_of: HashMap<String, usize> = HashMap::new();
    for (index, scenario) in campaign.scenarios.iter().enumerate() {
        match group_key(&scenario.spec) {
            Some(key) => match group_of.get(&key) {
                Some(&unit) => units[unit].push(index),
                None => {
                    group_of.insert(key, units.len());
                    units.push(vec![index]);
                }
            },
            None => units.push(vec![index]),
        }
    }
    units
}

/// `count` units spaced evenly over the registry order, which sorts units
/// by intensity, topology or threshold, so the sample spans the matrix.
fn sample_units(units: &[Vec<usize>], count: usize) -> Vec<Vec<usize>> {
    let count = count.min(units.len());
    (0..count)
        .map(|i| units[(2 * i + 1) * units.len() / (2 * count)].clone())
        .collect()
}

fn sub_campaign(campaign: &Campaign, cells: &[usize]) -> Campaign {
    let mut sub = Campaign::new(
        campaign.name.clone(),
        campaign.title.clone(),
        campaign.reference.clone(),
    );
    for &index in cells {
        sub.push(campaign.scenarios[index].clone());
    }
    sub
}

/// Everything a run needs before its first timed operation.
#[derive(Debug)]
pub struct Prepared {
    pub campaign: Campaign,
    units: Vec<Vec<usize>>,
    cache: ResultCache,
    artifacts: ArtifactStore,
    dir: PathBuf,
    pub store_open_ms: f64,
}

/// Set-up: builds the seeded matrix, plans its units, opens a fresh store
/// and the artifact directory under `dir`.
pub fn prepare(matrix: &Matrix, mix: u64, dir: &Path) -> io::Result<Prepared> {
    let campaign = build_campaign(matrix.campaign, matrix.full, mix);
    let units = sample_units(&plan_units(&campaign), matrix.sample);
    let started = Instant::now();
    let cache = ResultCache::open(dir.join("store"))?;
    let store_open_ms = started.elapsed().as_secs_f64() * 1e3;
    Ok(Prepared {
        campaign,
        units,
        cache,
        artifacts: ArtifactStore::new(dir.join("artifacts")),
        dir: dir.to_path_buf(),
        store_open_ms,
    })
}

fn runner(cache: &ResultCache, artifacts: &ArtifactStore) -> CampaignRunner {
    CampaignRunner::new()
        .with_workers(1)
        .with_cache(cache.clone())
        .with_artifacts(artifacts.clone())
}

/// One runner call on one unit.
#[derive(Debug)]
pub struct UnitRun {
    pub cells: Vec<usize>,
    pub wall_us: f64,
    pub records: Result<Vec<ScenarioRecord>, String>,
}

fn run_unit(runner: &CampaignRunner, campaign: &Campaign, cells: &[usize]) -> UnitRun {
    let sub = sub_campaign(campaign, cells);
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| runner.run(&sub)));
    let wall_us = started.elapsed().as_secs_f64() * 1e6;
    let records = match outcome {
        Ok(Ok(summary)) if summary.records.len() == cells.len() => Ok(summary.records),
        Ok(Ok(summary)) => Err(format!(
            "{} records for {} cells",
            summary.records.len(),
            cells.len()
        )),
        Ok(Err(error)) => Err(format!("runner I/O error: {error}")),
        Err(_) => Err("runner panicked".into()),
    };
    UnitRun {
        cells: cells.to_vec(),
        wall_us,
        records,
    }
}

/// One pass over the sample.
#[derive(Debug)]
pub struct Pass {
    pub wall_s: f64,
    pub runs: Vec<UnitRun>,
}

impl Pass {
    pub fn cells(&self) -> usize {
        self.runs.iter().map(|run| run.cells.len()).sum()
    }
}

/// The untraced closed loop: passes over the sample, units back to back,
/// while another pass as long as the last still fits in `seconds`.  Every
/// pass after the first runs on a fresh store, opened before its clock
/// starts.
pub fn run_untraced(prep: &Prepared, seconds: f64) -> io::Result<Vec<Pass>> {
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    while passes
        .last()
        .is_none_or(|last| started.elapsed().as_secs_f64() + last.wall_s <= seconds)
    {
        let runner = if passes.is_empty() {
            runner(&prep.cache, &prep.artifacts)
        } else {
            let store = prep.dir.join(format!("store-pass{}", passes.len()));
            runner(&ResultCache::open(store)?, &prep.artifacts)
        };
        let pass_started = Instant::now();
        let runs = prep
            .units
            .iter()
            .map(|cells| run_unit(&runner, &prep.campaign, cells))
            .collect();
        passes.push(Pass {
            wall_s: pass_started.elapsed().as_secs_f64(),
            runs,
        });
    }
    Ok(passes)
}

/// Verdicts over every cell a run attempted.
#[derive(Debug, Default)]
pub struct Verdicts {
    pub attempted: u64,
    pub problems: Vec<String>,
}

/// Checks every record of `runs`: no error result, the semantic
/// invariants, the seed-0 digests when `golden` is given, and a seeded
/// sample re-executed cold through `execute`.
pub fn check_runs(
    matrix: &Matrix,
    campaign: &Campaign,
    runs: &[UnitRun],
    golden: Option<&HashMap<String, u64>>,
    rng: &mut Rng,
) -> Verdicts {
    let mut verdicts = Verdicts::default();
    // Passes repeat cells; sample distinct ones.
    let mut completed: BTreeMap<usize, &Map> = BTreeMap::new();
    for run in runs {
        verdicts.attempted += run.cells.len() as u64;
        match &run.records {
            Err(error) => {
                for &cell in &run.cells {
                    verdicts
                        .problems
                        .push(format!("{}: {error}", campaign.scenarios[cell].name));
                }
            }
            Ok(records) => {
                for (&cell, record) in run.cells.iter().zip(records) {
                    let scenario = &campaign.scenarios[cell];
                    let problem = if record.scenario != *scenario {
                        Some("record belongs to another cell".to_string())
                    } else {
                        cell_problem(matrix, &scenario.spec, &record.metrics).or_else(|| {
                            let name = format!("{}/{}", campaign.name, scenario.name);
                            golden
                                .filter(|golden| {
                                    golden.get(&name) != Some(&digest(&record.metrics))
                                })
                                .map(|_| "metrics differ from the seed-0 digest".to_string())
                        })
                    };
                    match problem {
                        Some(problem) => verdicts
                            .problems
                            .push(format!("{}: {problem}", scenario.name)),
                        None => {
                            completed.entry(cell).or_insert(&record.metrics);
                        }
                    }
                }
            }
        }
    }
    let mut completed: Vec<(usize, &Map)> = completed.into_iter().collect();
    for _ in 0..COLD_SAMPLE.min(completed.len()) {
        let (cell, metrics) = completed.swap_remove(rng.below(completed.len()));
        let scenario = &campaign.scenarios[cell];
        let cold = execute(&scenario.spec);
        if Value::Object(cold).to_string() != Value::Object(metrics.clone()).to_string() {
            verdicts.problems.push(format!(
                "{}: cold re-execution differs from the grouped record",
                scenario.name
            ));
        }
    }
    verdicts
}

fn cell_problem(matrix: &Matrix, spec: &ScenarioSpec, metrics: &Map) -> Option<String> {
    if let Some(error) = metrics.get("config_error") {
        return Some(format!("unexpected config error {error}"));
    }
    if metrics.get("completed") != Some(&Value::Bool(true)) {
        return Some("run did not complete".into());
    }
    match spec {
        ScenarioSpec::Perf(perf)
            if matrix.workload == "paper-fig10"
                && matches!(perf.setup, MitigationSetup::Tprac { .. })
                && metrics.get("abo_rfms") != Some(&Value::from(0u64)) =>
        {
            Some("TPRAC cell issued ABO RFMs".into())
        }
        ScenarioSpec::Attack { setup, .. }
            if matches!(setup, MitigationSetup::Tprac { .. })
                && metrics.get("nrh_breached") != Some(&Value::Bool(false)) =>
        {
            Some("TPRAC cell breached NRH".into())
        }
        _ => None,
    }
}

fn metric_f64(metrics: &Map, key: &str) -> f64 {
    metrics.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// Simulated DRAM ticks of every reported leg of one unit: each perf
/// cell's protected leg plus the group's baseline once, and both legs of
/// each attack cell.
pub fn reported_ticks(records: &[ScenarioRecord]) -> f64 {
    let mut ticks = 0.0;
    let mut baseline_counted = false;
    for record in records {
        match &record.scenario.spec {
            ScenarioSpec::Perf(_) => {
                ticks += metric_f64(&record.metrics, "execution_time_protected_ns") / NS_PER_TICK;
                if !baseline_counted {
                    ticks +=
                        metric_f64(&record.metrics, "execution_time_baseline_ns") / NS_PER_TICK;
                    baseline_counted = true;
                }
            }
            ScenarioSpec::Attack { .. } => {
                ticks += metric_f64(&record.metrics, "elapsed_ticks")
                    + metric_f64(&record.metrics, "baseline_elapsed_ticks");
            }
            _ => {}
        }
    }
    ticks
}

/// Mean normalised performance per setup label over the completed cells.
pub fn mean_normalized(runs: &[UnitRun]) -> BTreeMap<String, (f64, usize)> {
    let mut sums: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for record in runs
        .iter()
        .filter_map(|run| run.records.as_ref().ok())
        .flatten()
    {
        let Some(setup) = record.metrics.get("setup").and_then(Value::as_str) else {
            continue;
        };
        let entry = sums.entry(setup.to_string()).or_default();
        entry.0 += metric_f64(&record.metrics, "normalized_performance");
        entry.1 += 1;
    }
    for (sum, count) in sums.values_mut() {
        *sum /= *count as f64;
    }
    sums
}

// ---------------------------------------------------------------------------
// Traced run
// ---------------------------------------------------------------------------

fn experiment(perf: &PerfScenario, setup: MitigationSetup) -> ExperimentConfig {
    ExperimentConfig {
        rowhammer_threshold: perf.rowhammer_threshold,
        prac_level: perf.prac_level,
        setup,
        instructions_per_core: perf.instructions_per_core,
        cores: perf.cores,
        channels: perf.channels.max(1),
        ranks: perf.ranks,
        profile: perf.profile,
        attack: perf.attack,
        engine: EngineKind::default(),
        sim_threads: 1,
    }
}

/// What the re-driven group produced for one cell.
enum Leg {
    ConfigError,
    /// The cell's setup is the baseline: the baseline leg is both legs.
    Baseline,
    Protected(Box<SystemResult>),
}

fn add(layers: &mut Layers, name: &'static str, value: f64) {
    *layers.entry(name).or_insert(0.0) += value;
}

/// Adds one reported leg's simulated statistics.
fn count_leg(layers: &mut Layers, result: &SystemResult) {
    let controller = &result.controller_stats;
    add(layers, "sim.cycles", result.elapsed_ticks as f64);
    add(
        layers,
        "sim.incomplete_runs",
        f64::from(u8::from(!result.completed)),
    );
    add(
        layers,
        "memctrl.requests",
        controller.requests_completed() as f64,
    );
    add(layers, "memctrl.rfms.tb", controller.tb_rfms as f64);
    add(layers, "memctrl.rfms.abo", controller.abo_rfms as f64);
    add(layers, "memctrl.rfms.acb", controller.acb_rfms as f64);
    add(
        layers,
        "memctrl.rfms.periodic",
        controller.periodic_rfms as f64,
    );
    add(layers, "memctrl.rfms.para", controller.para_rfms as f64);
    add(layers, "memctrl.row_hits", controller.row_hits as f64);
    add(
        layers,
        "memctrl.row_accesses",
        (controller.row_hits + controller.row_misses + controller.row_conflicts) as f64,
    );
    add(
        layers,
        "memctrl.latency_ticks",
        controller.total_latency_ticks as f64,
    );
    add(
        layers,
        "dram.activations",
        result.dram_stats.activations as f64,
    );
    add(
        layers,
        "dram.alerts",
        result.dram_stats.alerts_asserted as f64,
    );
    let max = layers.entry("dram.max_row_counter").or_insert(0.0);
    *max = max.max(f64::from(result.dram_stats.max_row_counter));
}

/// A cold leg, as `run_workload` runs it.
fn cold_leg(
    config: &ExperimentConfig,
    perf: &PerfScenario,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Option<SystemResult> {
    let system = tracer
        .span("sim.build", |_| config.build_system_config())
        .ok()?;
    let traces = tracer.span("workloads.trace_gen", |_| {
        workload_traces(config, &system, &perf.workload.workload, perf.seed)
    });
    add(layers, "workloads.trace_ops", trace_ops(&traces));
    let simulation = tracer.span("sim.build", |_| SystemSimulation::new(system, traces));
    add(layers, "snapshot.cold_legs", 1.0);
    Some(tracer.span("sim.run", |_| simulation.run()))
}

fn trace_ops(traces: &[cpu_sim::trace::Trace]) -> f64 {
    traces.iter().map(|trace| trace.ops().len() as f64).sum()
}

/// Re-drives one unit of perf cells through the calls
/// `campaign::exec::execute_perf_group` makes (or, for a lone cell, the
/// calls of the cold path).  Returns the baseline leg and each cell's leg.
fn redrive_perf_group(
    perfs: &[&PerfScenario],
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> (Option<SystemResult>, Vec<Leg>) {
    if perfs.len() == 1 {
        let perf = perfs[0];
        let protected = cold_leg(&experiment(perf, perf.setup.clone()), perf, tracer, layers);
        let baseline = protected.as_ref().and_then(|_| {
            cold_leg(
                &experiment(perf, MitigationSetup::BaselineNoAbo),
                perf,
                tracer,
                layers,
            )
        });
        return match (protected, baseline) {
            (Some(protected), Some(baseline)) => {
                (Some(baseline), vec![Leg::Protected(Box::new(protected))])
            }
            _ => (None, vec![Leg::ConfigError]),
        };
    }
    let template = perfs[0];
    let baseline_config = experiment(template, MitigationSetup::BaselineNoAbo);
    let Ok(baseline_system) = tracer.span("sim.build", |_| baseline_config.build_system_config())
    else {
        return (None, perfs.iter().map(|_| Leg::ConfigError).collect());
    };
    let traces = tracer.span("workloads.trace_gen", |_| {
        workload_traces(
            &baseline_config,
            &baseline_system,
            &template.workload.workload,
            template.seed,
        )
    });
    add(layers, "workloads.trace_ops", trace_ops(&traces));

    let mut legs: Vec<Option<Leg>> = perfs.iter().map(|_| None).collect();
    let mut protected_legs = Vec::new();
    for (slot, perf) in perfs.iter().enumerate() {
        if perf.setup == MitigationSetup::BaselineNoAbo {
            legs[slot] = Some(Leg::Baseline);
            continue;
        }
        let config = experiment(perf, perf.setup.clone());
        match tracer.span("sim.build", |_| config.build_system_config()) {
            Ok(system) => {
                let horizon = fork_horizon(&system.device);
                protected_legs.push((slot, system, horizon));
            }
            Err(_) => legs[slot] = Some(Leg::ConfigError),
        }
    }

    let pause_at = protected_legs
        .iter()
        .filter(|(_, _, horizon)| *horizon > 0)
        .map(|(_, _, horizon)| *horizon)
        .min();
    let (baseline, prefix) = match pause_at {
        Some(pause) => {
            let simulation = tracer.span("sim.build", |_| {
                SystemSimulation::new(baseline_system.clone(), traces.clone())
            });
            match tracer.span("sim.run", |_| simulation.run_until(pause)) {
                PrefixOutcome::Paused(prefix) if prefix.is_mitigation_free() => {
                    let fork = tracer.span("snapshot.fork", |_| prefix.fork());
                    add(layers, "snapshot.forks", 1.0);
                    add(layers, "snapshot.shared_cycles", prefix.now() as f64);
                    (tracer.span("sim.run", |_| fork.resume()), Some(prefix))
                }
                PrefixOutcome::Paused(prefix) => {
                    (tracer.span("sim.run", |_| prefix.resume()), None)
                }
                PrefixOutcome::Finished(result) => (result, None),
            }
        }
        None => {
            let simulation = tracer.span("sim.build", |_| {
                SystemSimulation::new(baseline_system, traces.clone())
            });
            add(layers, "snapshot.cold_legs", 1.0);
            (tracer.span("sim.run", |_| simulation.run()), None)
        }
    };

    for (slot, system, horizon) in protected_legs {
        let fork_from = prefix
            .as_ref()
            .filter(|prefix| horizon >= prefix.now() && prefix.now() > 0);
        let protected = if let Some(prefix) = fork_from {
            let fork = tracer.span("snapshot.fork", |_| {
                let mut fork = prefix.fork();
                fork.refit_mitigation(&system.device.prac, system.device.tref_every_n_refreshes);
                fork
            });
            add(layers, "snapshot.forks", 1.0);
            add(layers, "snapshot.shared_cycles", prefix.now() as f64);
            tracer.span("sim.run", |_| fork.resume())
        } else {
            let simulation = tracer.span("sim.build", |_| {
                SystemSimulation::new(system, traces.clone())
            });
            add(layers, "snapshot.cold_legs", 1.0);
            tracer.span("sim.run", |_| simulation.run())
        };
        legs[slot] = Some(Leg::Protected(Box::new(protected)));
    }
    (
        Some(baseline),
        legs.into_iter()
            .map(|leg| leg.expect("every cell has a leg"))
            .collect(),
    )
}

/// Compares a re-driven perf cell with the runner's record: normalised
/// performance, both IPCs and every RFM count must match exactly.
fn perf_mismatch(leg: &Leg, baseline: Option<&SystemResult>, metrics: &Map) -> Option<String> {
    let (protected, baseline) = match (leg, baseline) {
        (Leg::ConfigError, _) | (_, None) => {
            return (!metrics.contains_key("config_error"))
                .then(|| "re-drive hit a config error the record lacks".into());
        }
        (Leg::Baseline, Some(baseline)) => (baseline, baseline),
        (Leg::Protected(protected), Some(baseline)) => (protected.as_ref(), baseline),
    };
    let normalized = if baseline.total_ipc() > 0.0 {
        protected.total_ipc() / baseline.total_ipc()
    } else {
        0.0
    };
    let controller = &protected.controller_stats;
    let expected: [(&str, Value); 8] = [
        ("normalized_performance", normalized.into()),
        ("ipc_protected", protected.total_ipc().into()),
        ("ipc_baseline", baseline.total_ipc().into()),
        ("tb_rfms", controller.tb_rfms.into()),
        ("abo_rfms", controller.abo_rfms.into()),
        ("acb_rfms", controller.acb_rfms.into()),
        ("periodic_rfms", controller.periodic_rfms.into()),
        ("para_rfms", controller.para_rfms.into()),
    ];
    expected
        .into_iter()
        .find(|(key, value)| metrics.get(*key) != Some(value))
        .map(|(key, _)| format!("traced `{key}` differs from the untraced record"))
}

/// Re-drives one attack cell through `run_adversary`, as the `attacks`
/// executor resolves it.  `None` when the setup cannot be configured.
#[allow(clippy::too_many_arguments)]
fn redrive_attack(
    attack: &AttackKind,
    setup: &MitigationSetup,
    nrh: u32,
    accesses: u64,
    profile: DeviceProfile,
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Option<(AdversaryOutcome, AdversaryOutcome)> {
    let organization = DramDeviceConfig::paper_default().organization;
    let timing = if profile == DeviceProfile::JedecBaseline {
        DramTimingSummary::ddr5_8000b()
    } else {
        profile.timing().summary(organization.rows_per_bank)
    };
    let resolved = setup.resolve(nrh, &timing).ok()?;
    let defended = AttackSetup::new(nrh)
        .with_policy(resolved.policy)
        .with_counter_reset(resolved.counter_reset)
        .with_tref_every(resolved.tref_every_n_refreshes)
        .with_refresh(true);
    let undefended = AttackSetup::new(nrh)
        .with_policy(MitigationPolicy::Disabled)
        .with_refresh(true);
    let max_ticks = accesses.saturating_mul(ATTACK_TICKS_PER_ACCESS);
    let mitigated = tracer.span("attack.run", |_| {
        run_adversary(attack, &defended, accesses, max_ticks, seed)
    });
    let baseline = tracer.span("attack.run", |_| {
        run_adversary(attack, &undefended, accesses, max_ticks, seed)
    });
    for outcome in [&mitigated, &baseline] {
        add(layers, "attack.cycles", outcome.elapsed_ticks as f64);
        add(layers, "attack.accesses", outcome.accesses_completed as f64);
        add(layers, "attack.rfms", outcome.rfms_triggered as f64);
        add(layers, "dram.activations", outcome.activations as f64);
        add(layers, "dram.alerts", outcome.abo_events as f64);
        add(layers, "attack.activations", outcome.activations as f64);
        let max = layers.entry("dram.max_row_counter").or_insert(0.0);
        *max = max.max(f64::from(outcome.max_row_activations));
    }
    Some((mitigated, baseline))
}

fn attack_mismatch(
    outcome: Option<&(AdversaryOutcome, AdversaryOutcome)>,
    metrics: &Map,
) -> Option<String> {
    let Some((mitigated, baseline)) = outcome else {
        return (!metrics.contains_key("config_error"))
            .then(|| "re-drive hit a config error the record lacks".into());
    };
    let expected: [(&str, Value); 6] = [
        ("elapsed_ticks", mitigated.elapsed_ticks.into()),
        ("baseline_elapsed_ticks", baseline.elapsed_ticks.into()),
        ("activations", mitigated.activations.into()),
        ("rfms_triggered", mitigated.rfms_triggered.into()),
        ("abo_events", mitigated.abo_events.into()),
        ("max_row_activations", mitigated.max_row_activations.into()),
    ];
    expected
        .into_iter()
        .find(|(key, value)| metrics.get(*key) != Some(value))
        .map(|(key, _)| format!("traced `{key}` differs from the untraced record"))
}

/// The traced run: one pass over the sample.  Fills
/// `layers` and returns the untraced unit runs (for the output checks)
/// and the re-drive mismatches.
pub fn run_traced(
    prep: &Prepared,
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> io::Result<(Vec<UnitRun>, Vec<String>)> {
    let untraced_runner = runner(&prep.cache, &prep.artifacts);
    let traced_cache = ResultCache::open(prep.dir.join("store-traced"))?;
    let traced_artifacts = ArtifactStore::new(prep.dir.join("artifacts-traced"));
    let mut runs = Vec::new();
    let mut mismatches = Vec::new();
    let (mut untraced_ms, mut traced_ms, mut exec_ms) = (0.0, 0.0, 0.0);
    let mut unit_ms = Vec::new();
    for (op, cells) in prep.units.iter().enumerate() {
        let run = run_unit(&untraced_runner, &prep.campaign, cells);
        untraced_ms += run.wall_us / 1e3;
        unit_ms.push(run.wall_us / 1e3);
        let Ok(records) = &run.records else {
            runs.push(run);
            continue;
        };
        exec_ms += records.iter().map(|record| record.wall_ms).sum::<f64>();

        tracer.set_op(op as u64);
        let started = Instant::now();
        let sub = sub_campaign(&prep.campaign, cells);
        let unit_mismatches = tracer.span("campaign.unit", |tracer| {
            for scenario in &sub.scenarios {
                let _ = tracer.span("campaign.key", |_| scenario.key());
                let _ = tracer.span("store.lookup", |_| traced_cache.lookup(scenario));
            }
            let found = redrive_unit(&sub, records, tracer, layers);
            for record in records {
                let result = CachedResult {
                    metrics: record.metrics.clone(),
                    wall_ms: record.wall_ms,
                };
                tracer.span("store.insert", |_| {
                    traced_cache.store(&record.scenario, &result)
                })?;
            }
            tracer.span("campaign.artifact", |_| {
                traced_artifacts.write(&sub, records)
            })?;
            io::Result::Ok(found)
        })?;
        traced_ms += started.elapsed().as_secs_f64() * 1e3;
        mismatches.extend(unit_mismatches);
        runs.push(run);
    }

    let runner_ms: f64 = unit_ms.iter().sum();
    layers.insert("campaign.exec_ms", exec_ms);
    layers.insert("campaign.overhead_ms", runner_ms - exec_ms);
    layers.insert("campaign.unit_p50_ms", median(&unit_ms));
    layers.insert("campaign.unit_max_ms", percentile(&unit_ms, 100.0));
    layers.insert("trace.untraced_ms", untraced_ms);
    layers.insert("trace.traced_ms", traced_ms);
    let stats = traced_cache.store_handle().stats();
    layers.insert("store.records", stats.live_records as f64);
    layers.insert("store.bytes", stats.bytes as f64);
    Ok((runs, mismatches))
}

/// Re-drives one unit's cells and returns their mismatches.
fn redrive_unit(
    sub: &Campaign,
    records: &[ScenarioRecord],
    tracer: &mut Tracer,
    layers: &mut Layers,
) -> Vec<String> {
    let perfs: Vec<&PerfScenario> = sub
        .scenarios
        .iter()
        .filter_map(|scenario| match &scenario.spec {
            ScenarioSpec::Perf(perf) => Some(perf.as_ref()),
            _ => None,
        })
        .collect();
    let mut mismatches = Vec::new();
    if perfs.len() == sub.scenarios.len() {
        let (baseline, legs) = redrive_perf_group(&perfs, tracer, layers);
        if let Some(baseline) = &baseline {
            count_leg(layers, baseline);
        }
        for ((leg, record), scenario) in legs.iter().zip(records).zip(&sub.scenarios) {
            if let Leg::Protected(protected) = leg {
                count_leg(layers, protected);
            }
            if let Some(problem) = perf_mismatch(leg, baseline.as_ref(), &record.metrics) {
                mismatches.push(format!("{}: {problem}", scenario.name));
            }
        }
        return mismatches;
    }
    for (scenario, record) in sub.scenarios.iter().zip(records) {
        let problem = match &scenario.spec {
            ScenarioSpec::Attack {
                attack,
                setup,
                nrh,
                accesses,
                profile,
                seed,
            } => {
                let outcome = redrive_attack(
                    attack, setup, *nrh, *accesses, *profile, *seed, tracer, layers,
                );
                attack_mismatch(outcome.as_ref(), &record.metrics)
            }
            _ => Some("the benchmark re-drives only perf and attack cells".into()),
        };
        if let Some(problem) = problem {
            mismatches.push(format!("{}: {problem}", scenario.name));
        }
    }
    mismatches
}
