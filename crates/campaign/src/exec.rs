//! Scenario execution: turns a declarative [`ScenarioSpec`] into a flat
//! metric map.
//!
//! Execution is a pure function of the spec (every random stream is seeded
//! from fields of the spec), which is what makes cached results valid across
//! runs: same spec → same key → same metrics, bit for bit.

use dram_sim::device::DramDeviceConfig;
use dram_sim::DeviceProfile;
use prac_core::config::MitigationPolicy;
use prac_core::error::ConfigError;
use prac_core::overhead::{rfm_interval_register_bits, StorageModel};
use prac_core::security::{figure7_windows, CounterResetPolicy, SecurityAnalysis};
use prac_core::timing::DramTimingSummary;
use prac_core::tprac::TpracConfig;
use pracleak::adversary::run_adversary;
use pracleak::characterize::run_characterization;
use pracleak::covert::run_covert_channel;
use pracleak::latency::SpikeDetector;
use pracleak::setup::AttackSetup;
use pracleak::side_channel::SideChannelExperiment;
use serde_json::{Map, Value};
use system_sim::{
    energy_overhead_for, workload_traces, AttackKind, EngineKind, ExperimentConfig,
    MitigationSetup, SystemConfig, SystemResult, SystemSimulation,
};
use workloads::MemoryIntensity;

use crate::scenario::ScenarioSpec;

/// Banks blocked by one all-bank RFM in the energy model (one DDR5 channel).
const BANKS_PER_RFM: u32 = 128;

/// Runs a scenario with the default (event-driven) engine and returns its
/// metrics as a flat JSON object.
#[must_use]
pub fn execute(spec: &ScenarioSpec) -> Map {
    execute_with(spec, EngineKind::default())
}

/// Runs a scenario under an explicit simulation engine.
///
/// The engine is an execution knob, not part of the scenario's identity:
/// every engine produces bit-identical metrics (enforced by the
/// differential suite's engine race), so cached results remain valid
/// across engines and the engine is deliberately excluded from the cache
/// key.
#[must_use]
pub fn execute_with(spec: &ScenarioSpec, engine: EngineKind) -> Map {
    match spec {
        ScenarioSpec::Perf(perf) => execute_perf_group(&[perf.as_ref()], engine)
            .pop()
            .expect("a group of one yields one result"),
        ScenarioSpec::AboLatency {
            prac_level,
            nbo,
            window_ns,
        } => execute_abo_latency(*prac_level, *nbo, *window_ns),
        ScenarioSpec::SideChannel {
            nbo,
            encryptions,
            k0,
            p0,
            defended,
            seed,
        } => execute_side_channel(*nbo, *encryptions, *k0, *p0, *defended, *seed),
        ScenarioSpec::TmaxSeries { nbo, counter_reset } => {
            execute_tmax_series(*nbo, *counter_reset)
        }
        ScenarioSpec::SolveWindow { nrh, counter_reset } => {
            execute_solve_window(*nrh, *counter_reset)
        }
        ScenarioSpec::Covert {
            kind,
            nbo,
            symbols,
            seed,
        } => execute_covert(*kind, *nbo, *symbols, *seed),
        ScenarioSpec::Storage { queue, banks } => execute_storage(*queue, *banks),
        ScenarioSpec::Attack {
            attack,
            setup,
            nrh,
            accesses,
            profile,
            seed,
        } => execute_attack(attack, setup, *nrh, *accesses, *profile, *seed),
    }
}

/// The [`ExperimentConfig`] a perf cell resolves to, optionally with its
/// setup swapped (the group executor derives the baseline and each
/// protected leg from the same cell template).
fn perf_experiment_config(
    perf: &crate::scenario::PerfScenario,
    setup: MitigationSetup,
    engine: EngineKind,
) -> ExperimentConfig {
    ExperimentConfig {
        rowhammer_threshold: perf.rowhammer_threshold,
        prac_level: perf.prac_level,
        cores: perf.cores,
        channels: perf.channels.max(1),
        ranks: perf.ranks,
        profile: perf.profile,
        attack: perf.attack,
        engine,
        ..ExperimentConfig::new(setup, perf.instructions_per_core)
    }
}

/// The deterministic result of a perf cell that cannot be configured as
/// specified (e.g. no safe TB-Window for the threshold): the failure is
/// recorded as the cell's result instead of silently running a different
/// configuration.
fn perf_config_error(perf: &crate::scenario::PerfScenario, error: &ConfigError) -> Map {
    let mut m = Map::new();
    m.insert("setup".into(), perf.setup.label().into());
    m.insert("nrh".into(), perf.rowhammer_threshold.into());
    m.insert("completed".into(), false.into());
    m.insert("config_error".into(), error.to_string().into());
    m
}

/// Renders one perf cell's flat metric map from its protected and baseline
/// runs.
fn perf_metrics(
    perf: &crate::scenario::PerfScenario,
    protected: &SystemResult,
    baseline: &SystemResult,
) -> Map {
    let normalized = if baseline.total_ipc() > 0.0 {
        protected.total_ipc() / baseline.total_ipc()
    } else {
        0.0
    };
    let energy = energy_overhead_for(baseline, protected, BANKS_PER_RFM);

    // Metric fields here are additive-only without a SIM_REVISION bump:
    // entries cached by an older binary stay valid (same simulation, same
    // key) but lack newer informational fields, so artifact consumers must
    // treat absent fields as "not recorded", not zero.
    let mut m = Map::new();
    m.insert(
        "workload".into(),
        perf.workload.workload.name.as_str().into(),
    );
    m.insert(
        "intensity".into(),
        match perf.workload.intensity {
            MemoryIntensity::High => "high",
            MemoryIntensity::Medium => "medium",
            MemoryIntensity::Low => "low",
        }
        .into(),
    );
    m.insert("group".into(), perf.workload.group.to_string().into());
    m.insert("setup".into(), perf.setup.label().into());
    m.insert("nrh".into(), perf.rowhammer_threshold.into());
    m.insert("normalized_performance".into(), normalized.into());
    m.insert("ipc_protected".into(), protected.total_ipc().into());
    m.insert("ipc_baseline".into(), baseline.total_ipc().into());
    m.insert("tb_rfms".into(), protected.controller_stats.tb_rfms.into());
    m.insert(
        "abo_rfms".into(),
        protected.controller_stats.abo_rfms.into(),
    );
    m.insert(
        "acb_rfms".into(),
        protected.controller_stats.acb_rfms.into(),
    );
    m.insert(
        "periodic_rfms".into(),
        protected.controller_stats.periodic_rfms.into(),
    );
    m.insert(
        "para_rfms".into(),
        protected.controller_stats.para_rfms.into(),
    );
    m.insert(
        "execution_time_protected_ns".into(),
        protected.execution_time_ns().into(),
    );
    m.insert(
        "execution_time_baseline_ns".into(),
        baseline.execution_time_ns().into(),
    );
    m.insert(
        "energy_mitigation_overhead".into(),
        energy.mitigation.into(),
    );
    m.insert(
        "energy_non_mitigation_overhead".into(),
        energy.non_mitigation.into(),
    );
    m.insert("energy_total_overhead".into(), energy.total.into());
    m.insert(
        "completed".into(),
        (protected.completed && baseline.completed).into(),
    );
    // Per-channel breakdown of the protected run, so multi-channel
    // campaigns can see how demand traffic and mitigation budgets spread
    // across controllers.  Emitted only for multi-channel cells: a
    // single-channel cell keeps the exact metric set it had before the
    // channel dimension existed, so cached and fresh results of the same
    // (key-stable) scenario never disagree on their schema.
    if perf.channels > 1 {
        m.insert("channels".into(), perf.channels.into());
        for per_channel in &protected.channel_stats {
            let prefix = format!("ch{}", per_channel.channel);
            m.insert(
                format!("{prefix}_reads"),
                per_channel.controller.reads_completed.into(),
            );
            m.insert(
                format!("{prefix}_writes"),
                per_channel.controller.writes_completed.into(),
            );
            m.insert(
                format!("{prefix}_rfms"),
                per_channel.controller.total_rfms().into(),
            );
            m.insert(
                format!("{prefix}_activations"),
                per_channel.dram.activations.into(),
            );
            m.insert(
                format!("{prefix}_row_hit_rate"),
                per_channel.controller.row_hit_rate().into(),
            );
        }
    }
    // Rank-override and device-profile cells name their topology.  Emitted
    // only when non-default, for the same schema-stability reason as the
    // per-channel block above.
    if perf.ranks > 0 {
        m.insert("ranks".into(), perf.ranks.into());
    }
    if perf.profile != DeviceProfile::JedecBaseline {
        m.insert("device_profile".into(), perf.profile.slug().into());
    }
    // Adversarial co-runner cells add their security headline.  Emitted
    // only when the attack knob is set, for the same schema-stability
    // reason as the per-channel block above.
    if let Some(attack) = &perf.attack {
        m.insert("attack".into(), attack.slug().into());
        m.insert(
            "max_row_activations".into(),
            protected.dram_stats.max_row_counter.into(),
        );
        m.insert(
            "nrh_breached".into(),
            (protected.dram_stats.max_row_counter >= perf.rowhammer_threshold).into(),
        );
    }
    m
}

/// Executes a group of perf cells that differ only in their mitigation
/// setup, returning one metric map per input cell, in input order.  A lone
/// cell is a group of one.
///
/// The group shares what does not depend on the setup: the **traces** are
/// generated once, and **the baseline leg** (the normalisation denominator
/// every cell needs) runs once instead of once per cell.  Every protected
/// leg then runs cold from the shared traces, so each cell's metrics are
/// exactly those of its own baseline and protected runs.
///
/// A cell whose configuration cannot be built (e.g. no safe TB-Window for
/// its threshold) records the error deterministically instead of running a
/// different configuration; when the shared baseline cannot be built,
/// every cell records its own error, or the baseline's.
#[must_use]
pub fn execute_perf_group(
    perfs: &[&crate::scenario::PerfScenario],
    engine: EngineKind,
) -> Vec<Map> {
    let Some(template) = perfs.first() else {
        return Vec::new();
    };
    let baseline_config = perf_experiment_config(template, MitigationSetup::BaselineNoAbo, engine);
    // Each cell's protected system, or `None` when its setup is the
    // baseline and the baseline leg doubles as its protected run.
    let legs: Vec<Result<Option<SystemConfig>, ConfigError>> = perfs
        .iter()
        .map(|perf| {
            if perf.setup == MitigationSetup::BaselineNoAbo {
                return Ok(None);
            }
            perf_experiment_config(perf, perf.setup.clone(), engine)
                .build_system_config()
                .map(Some)
        })
        .collect();
    let baseline_system = match baseline_config.build_system_config() {
        Ok(system) => system,
        Err(baseline_error) => {
            return perfs
                .iter()
                .zip(legs)
                .map(|(perf, leg)| {
                    perf_config_error(perf, leg.as_ref().err().unwrap_or(&baseline_error))
                })
                .collect();
        }
    };
    let traces = workload_traces(
        &baseline_config,
        &baseline_system,
        &template.workload.workload,
        template.seed,
    );
    let baseline = SystemSimulation::new(baseline_system, traces.clone()).run();
    perfs
        .iter()
        .zip(legs)
        .map(|(perf, leg)| match leg {
            Err(error) => perf_config_error(perf, &error),
            Ok(None) => perf_metrics(perf, &baseline, &baseline),
            Ok(Some(system)) => {
                let protected = SystemSimulation::new(system, traces.clone()).run();
                perf_metrics(perf, &protected, &baseline)
            }
        })
        .collect()
}

/// Ticks an `attacks` cell may spend per attacker access before the run is
/// cut off: generous enough that even a fully RFM-stalled serialized
/// attacker finishes, tight enough that a livelocked cell cannot hang a
/// sweep.
const ATTACK_TICKS_PER_ACCESS: u64 = 4_000;

fn execute_attack(
    attack: &AttackKind,
    setup: &MitigationSetup,
    nrh: u32,
    accesses: u64,
    profile: DeviceProfile,
    seed: u64,
) -> Map {
    let mut m = Map::new();
    m.insert("attack".into(), attack.slug().into());
    m.insert("setup".into(), setup.label().into());
    m.insert("nrh".into(), nrh.into());
    m.insert("accesses".into(), accesses.into());
    // Schema stability: baseline cells keep the exact metric set they had
    // before the profile dimension existed (their cache keys are identical).
    if profile != DeviceProfile::JedecBaseline {
        m.insert("device_profile".into(), profile.slug().into());
    }

    // Same bit-identity branch as `ExperimentConfig::build_system_config`:
    // the JEDEC baseline keeps the seed's authored ns summary, vendor
    // profiles derive theirs from the profile's tick-level timing.
    let organization = DramDeviceConfig::paper_default().organization;
    let timing = if profile == DeviceProfile::JedecBaseline {
        DramTimingSummary::ddr5_8000b()
    } else {
        profile.timing().summary(organization.rows_per_bank)
    };
    let resolved = match setup.resolve(nrh, &timing) {
        Ok(resolved) => resolved,
        Err(error) => {
            // Same contract as perf cells: a setup that cannot be
            // configured as specified records the failure deterministically.
            m.insert("completed".into(), false.into());
            m.insert("config_error".into(), error.to_string().into());
            return m;
        }
    };
    let defended = AttackSetup::new(nrh)
        .with_policy(resolved.policy)
        .with_counter_reset(resolved.counter_reset)
        .with_tref_every(resolved.tref_every_n_refreshes)
        .with_refresh(true);
    let max_ticks = accesses.saturating_mul(ATTACK_TICKS_PER_ACCESS);
    let mitigated = run_adversary(attack, &defended, accesses, max_ticks, seed);
    // The attacker-throughput baseline: the same pattern against the same
    // device with mitigation disabled outright.
    let undefended = AttackSetup::new(nrh)
        .with_policy(MitigationPolicy::Disabled)
        .with_refresh(true);
    let baseline = run_adversary(attack, &undefended, accesses, max_ticks, seed);

    m.insert(
        "max_row_activations".into(),
        mitigated.max_row_activations.into(),
    );
    m.insert("nrh_breached".into(), mitigated.breached(nrh).into());
    m.insert("aggressor_rows".into(), mitigated.aggressor_rows.into());
    m.insert(
        "aggressor_coverage".into(),
        mitigated.aggressor_coverage.into(),
    );
    m.insert("rfms_triggered".into(), mitigated.rfms_triggered.into());
    m.insert("abo_events".into(), mitigated.abo_events.into());
    m.insert("activations".into(), mitigated.activations.into());
    m.insert("elapsed_ticks".into(), mitigated.elapsed_ticks.into());
    m.insert(
        "baseline_elapsed_ticks".into(),
        baseline.elapsed_ticks.into(),
    );
    m.insert(
        "baseline_max_row_activations".into(),
        baseline.max_row_activations.into(),
    );
    // How much the defense costs the *attacker*: mitigated runtime per
    // access over undefended runtime per access (>= 1 when RFMs stall the
    // hammering).
    let slowdown = if baseline.accesses_per_kilotick() > 0.0 {
        baseline.accesses_per_kilotick() / mitigated.accesses_per_kilotick().max(f64::MIN_POSITIVE)
    } else {
        0.0
    };
    m.insert("attacker_slowdown".into(), slowdown.into());
    // On-die ECC adjudication: a post-breach metric layer for ECC-equipped
    // profiles.  The overshoot beyond NRH on the hottest row is converted
    // into raw bit flips and adjudicated codeword by codeword — singleton
    // flips are silently corrected, colliding flips escape to the host.
    if let Some(ecc) = profile.on_die_ecc() {
        let overshoot = u64::from(mitigated.max_row_activations).saturating_sub(u64::from(nrh));
        let adjudication =
            ecc.adjudicate(overshoot, workloads::attack::row_bits(&organization), seed);
        m.insert("ecc_raw_flips".into(), adjudication.raw_flips.into());
        m.insert(
            "ecc_flips_corrected".into(),
            adjudication.flips_corrected.into(),
        );
        m.insert(
            "ecc_flips_escaped".into(),
            adjudication.flips_escaped.into(),
        );
    }
    m.insert(
        "completed".into(),
        (mitigated.completed && baseline.completed).into(),
    );
    m
}

fn execute_abo_latency(
    prac_level: Option<prac_core::config::PracLevel>,
    nbo: u32,
    window_ns: f64,
) -> Map {
    let panel = run_characterization(nbo, prac_level, window_ns);
    let mut m = Map::new();
    m.insert(
        "rfms_per_abo".into(),
        prac_level.map_or(Value::Null, |l| l.rfms_per_alert().into()),
    );
    m.insert("attacker_accesses".into(), panel.samples.len().into());
    m.insert("abo_events".into(), panel.abo_events.into());
    m.insert("abo_rfms".into(), panel.abo_rfms.into());
    m.insert("latency_spikes".into(), panel.spike_count().into());
    m.insert(
        "mean_baseline_latency_ns".into(),
        panel.mean_baseline_latency_ns.into(),
    );
    m.insert(
        "mean_spike_latency_ns".into(),
        panel.mean_spike_latency_ns.into(),
    );
    m
}

fn execute_side_channel(
    nbo: u32,
    encryptions: u32,
    k0: u8,
    p0: u8,
    defended: bool,
    seed: u64,
) -> Map {
    let mut m = Map::new();
    m.insert("k0".into(), u64::from(k0).into());
    m.insert("defended".into(), defended.into());
    let policy = if defended {
        let timing = DramTimingSummary::ddr5_8000b();
        match TpracConfig::solve_for_threshold(nbo, &timing, CounterResetPolicy::ResetEveryTrefw) {
            Ok(tprac) => MitigationPolicy::Tprac(tprac),
            Err(error) => {
                // Same contract as perf and attack cells: a defense that
                // cannot be configured records the failure deterministically.
                m.insert("completed".into(), false.into());
                m.insert("config_error".into(), error.to_string().into());
                return m;
            }
        }
    } else {
        MitigationPolicy::AboOnly
    };
    let experiment = SideChannelExperiment {
        nbo,
        encryptions,
        policy,
        seed,
    };
    let outcome = experiment.run_for_key_byte(k0, p0);
    let detector = SpikeDetector::default();

    m.insert("true_nibble".into(), u64::from(outcome.true_nibble).into());
    m.insert(
        "leaked_row".into(),
        outcome.leaked_row.map_or(Value::Null, Value::from),
    );
    m.insert(
        "hottest_victim_row".into(),
        outcome
            .hottest_victim_row()
            .map_or(Value::Null, Value::from),
    );
    m.insert("nibble_recovered".into(), outcome.nibble_recovered().into());
    m.insert(
        "attacker_activations_to_leaked_row".into(),
        outcome.attacker_activations_to_leaked_row.into(),
    );
    m.insert("abo_rfms".into(), outcome.abo_rfms.into());
    m.insert("tb_rfms".into(), outcome.tb_rfms.into());
    m.insert("rfm_count".into(), outcome.rfm_times_ns.len().into());
    m.insert(
        "attacker_accesses".into(),
        outcome.attacker_latencies_ns.len().into(),
    );
    m.insert(
        "latency_spikes".into(),
        detector.count_spikes(&outcome.attacker_latencies_ns).into(),
    );
    m
}

fn execute_tmax_series(nbo: u32, counter_reset: bool) -> Map {
    let timing = DramTimingSummary::ddr5_8000b();
    let analysis = SecurityAnalysis::with_back_off_threshold(nbo, &timing, reset(counter_reset));
    let mut m = Map::new();
    m.insert("nbo".into(), nbo.into());
    m.insert("counter_reset".into(), counter_reset.into());
    for (window, tmax) in analysis.tmax_series(&figure7_windows()) {
        m.insert(format!("tmax_at_{window:.2}_trefi"), tmax.into());
    }
    m
}

fn execute_solve_window(nrh: u32, counter_reset: bool) -> Map {
    let timing = DramTimingSummary::ddr5_8000b();
    let analysis = SecurityAnalysis::with_back_off_threshold(nrh, &timing, reset(counter_reset));
    let mut m = Map::new();
    m.insert("nrh".into(), nrh.into());
    m.insert("counter_reset".into(), counter_reset.into());
    match analysis.solve_tb_window() {
        Ok(solution) => {
            m.insert("solvable".into(), true.into());
            m.insert("tb_window_trefi".into(), solution.tb_window_trefi.into());
            m.insert("tb_window_ns".into(), solution.tb_window_ns.into());
            m.insert("tmax".into(), solution.tmax.into());
            m.insert("bandwidth_loss".into(), solution.bandwidth_loss.into());
        }
        Err(_) => {
            m.insert("solvable".into(), false.into());
        }
    }
    m
}

fn execute_covert(
    kind: pracleak::covert::CovertChannelKind,
    nbo: u32,
    symbols: usize,
    seed: u64,
) -> Map {
    let result = run_covert_channel(kind, nbo, symbols, seed);
    let mut m = Map::new();
    m.insert("channel".into(), format!("{kind:?}").into());
    m.insert("nbo".into(), nbo.into());
    m.insert(
        "transmission_period_us".into(),
        result.transmission_period_us.into(),
    );
    m.insert("bitrate_kbps".into(), result.bitrate_kbps.into());
    m.insert("bits_transmitted".into(), result.bits_transmitted.into());
    m.insert("bit_errors".into(), result.bit_errors.into());
    m.insert("error_rate".into(), result.error_rate().into());
    m
}

fn execute_storage(queue: prac_core::queue::QueueKind, banks: u32) -> Map {
    let timing = DramTimingSummary::ddr5_8000b();
    let model = StorageModel::ddr5_32gb(&timing, banks);
    let overhead = model.tprac_overhead(&timing, queue);
    let mut m = Map::new();
    m.insert(
        "rfm_interval_register_bits".into(),
        rfm_interval_register_bits(timing.t_refw_ns / 2.0, timing.t_refi_ns / 1024.0).into(),
    );
    m.insert(
        "dram_bits_per_bank".into(),
        overhead.dram_bits_per_bank.into(),
    );
    m.insert("dram_bits_total".into(), overhead.dram_bits_total().into());
    m.insert("controller_bits".into(), overhead.controller_bits.into());
    m.insert("total_bytes".into(), overhead.total_bytes().into());
    m
}

fn reset(counter_reset: bool) -> CounterResetPolicy {
    if counter_reset {
        CounterResetPolicy::ResetEveryTrefw
    } else {
        CounterResetPolicy::NoReset
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytical_scenarios_execute_instantly() {
        let metrics = execute(&ScenarioSpec::SolveWindow {
            nrh: 1024,
            counter_reset: true,
        });
        assert_eq!(metrics.get("solvable"), Some(&Value::Bool(true)));
        assert!(metrics.get("tmax").and_then(Value::as_u64).unwrap() < 1024);

        let metrics = execute(&ScenarioSpec::Storage {
            queue: prac_core::queue::QueueKind::SingleEntryFrequency,
            banks: 128,
        });
        assert!(metrics.get("total_bytes").and_then(Value::as_u64).unwrap() > 0);
    }

    #[test]
    fn execution_is_deterministic() {
        let spec = ScenarioSpec::Covert {
            kind: pracleak::covert::CovertChannelKind::ActivityBased,
            nbo: 256,
            symbols: 4,
            seed: 9,
        };
        assert_eq!(execute(&spec), execute(&spec));
    }

    #[test]
    fn unconfigurable_perf_cells_record_the_error() {
        // NRH = 1 has no safe TB-Window; the cell must record the failure
        // deterministically instead of running a fallback configuration.
        let spec = ScenarioSpec::Perf(Box::new(crate::scenario::PerfScenario {
            setup: system_sim::MitigationSetup::Tprac {
                tref_rate: prac_core::tprac::TrefRate::None,
                counter_reset: true,
            },
            rowhammer_threshold: 1,
            prac_level: prac_core::config::PracLevel::One,
            workload: workloads::quick_suite().remove(0),
            instructions_per_core: 1_000,
            cores: 2,
            channels: 1,
            ranks: 0,
            profile: dram_sim::DeviceProfile::JedecBaseline,
            attack: None,
            seed: 1,
        }));
        let metrics = execute(&spec);
        assert_eq!(metrics.get("completed"), Some(&Value::Bool(false)));
        assert!(metrics
            .get("config_error")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("no safe TB-Window")));
        assert_eq!(execute(&spec), metrics, "error cells are deterministic");
    }

    #[test]
    fn multi_channel_perf_cells_report_per_channel_stats() {
        let spec = ScenarioSpec::Perf(Box::new(crate::scenario::PerfScenario {
            setup: system_sim::MitigationSetup::AboOnly,
            rowhammer_threshold: 1024,
            prac_level: prac_core::config::PracLevel::One,
            workload: workloads::quick_suite().remove(0),
            instructions_per_core: 3_000,
            cores: 2,
            channels: 4,
            ranks: 0,
            profile: dram_sim::DeviceProfile::JedecBaseline,
            attack: None,
            seed: 77,
        }));
        let metrics = execute(&spec);
        assert_eq!(metrics.get("channels").and_then(Value::as_u64), Some(4));
        let mut reads_across_channels = 0u64;
        for channel in 0..4 {
            reads_across_channels += metrics
                .get(&format!("ch{channel}_reads"))
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("missing ch{channel}_reads"));
        }
        // The high-intensity quick workload reaches DRAM on several
        // channels; the per-channel reads must sum to something real.
        assert!(reads_across_channels > 0);
    }

    #[test]
    fn single_channel_perf_cells_keep_the_pre_channel_metric_schema() {
        // Cached single-channel results (written before the channel
        // dimension existed) and fresh ones must have identical metric
        // sets, because their cache keys are identical.
        let spec = ScenarioSpec::Perf(Box::new(crate::scenario::PerfScenario {
            setup: system_sim::MitigationSetup::AboOnly,
            rowhammer_threshold: 1024,
            prac_level: prac_core::config::PracLevel::One,
            workload: workloads::quick_suite().remove(0),
            instructions_per_core: 2_000,
            cores: 2,
            channels: 1,
            ranks: 0,
            profile: dram_sim::DeviceProfile::JedecBaseline,
            attack: None,
            seed: 78,
        }));
        let metrics = execute(&spec);
        assert!(!metrics.contains_key("channels"));
        assert!(!metrics.contains_key("ch0_reads"));
    }

    #[test]
    fn attack_cells_report_security_metrics() {
        let spec = |setup: MitigationSetup| ScenarioSpec::Attack {
            attack: AttackKind::SingleSided,
            setup,
            nrh: 512,
            accesses: 700,
            profile: DeviceProfile::JedecBaseline,
            seed: 1,
        };
        // Undefended: the single-sided hammer must breach the threshold.
        let baseline = execute(&spec(MitigationSetup::BaselineNoAbo));
        assert_eq!(baseline.get("nrh_breached"), Some(&Value::Bool(true)));
        assert!(
            baseline
                .get("max_row_activations")
                .and_then(Value::as_u64)
                .unwrap()
                >= 512
        );
        // TPRAC: the peak stays below NRH and the attacker pays a slowdown.
        let defended = execute(&spec(MitigationSetup::Tprac {
            tref_rate: prac_core::tprac::TrefRate::None,
            counter_reset: true,
        }));
        assert_eq!(defended.get("nrh_breached"), Some(&Value::Bool(false)));
        assert!(
            defended
                .get("rfms_triggered")
                .and_then(Value::as_u64)
                .unwrap()
                > 0
        );
        assert!(
            defended
                .get("attacker_slowdown")
                .and_then(Value::as_f64)
                .unwrap()
                > 1.0
        );
        assert_eq!(
            defended.get("aggressor_coverage").and_then(Value::as_f64),
            Some(1.0)
        );
        assert_eq!(defended.get("completed"), Some(&Value::Bool(true)));
        // Deterministic, like every other kind.
        assert_eq!(
            execute(&spec(MitigationSetup::AboOnly)),
            execute(&spec(MitigationSetup::AboOnly))
        );
    }

    #[test]
    fn ecc_profiles_adjudicate_breach_overshoot() {
        let spec = |profile| ScenarioSpec::Attack {
            attack: AttackKind::SingleSided,
            setup: MitigationSetup::BaselineNoAbo,
            nrh: 512,
            accesses: 700,
            profile,
            seed: 1,
        };
        // The baseline device has no on-die ECC, so the adjudication fields
        // must stay absent (metric schema is additive-only).
        let baseline = execute(&spec(DeviceProfile::JedecBaseline));
        assert!(!baseline.contains_key("ecc_raw_flips"));
        assert!(!baseline.contains_key("device_profile"));
        for profile in [DeviceProfile::VendorA, DeviceProfile::VendorB] {
            let metrics = execute(&spec(profile));
            assert_eq!(
                metrics.get("device_profile").and_then(Value::as_str),
                Some(profile.slug())
            );
            let raw = metrics
                .get("ecc_raw_flips")
                .and_then(Value::as_u64)
                .unwrap();
            let corrected = metrics
                .get("ecc_flips_corrected")
                .and_then(Value::as_u64)
                .unwrap();
            let escaped = metrics
                .get("ecc_flips_escaped")
                .and_then(Value::as_u64)
                .unwrap();
            // Every raw flip is adjudicated exactly once.
            assert_eq!(corrected + escaped, raw);
            // An undefended breach at this depth overshoots enough to flip bits.
            assert!(raw > 0, "{} produced no raw flips", profile.slug());
        }
    }

    #[test]
    fn unconfigurable_attack_cells_record_the_error() {
        let spec = ScenarioSpec::Attack {
            attack: AttackKind::DoubleSided,
            setup: MitigationSetup::Tprac {
                tref_rate: prac_core::tprac::TrefRate::None,
                counter_reset: true,
            },
            nrh: 1, // no safe TB-Window exists
            accesses: 100,
            profile: DeviceProfile::JedecBaseline,
            seed: 0,
        };
        let metrics = execute(&spec);
        assert_eq!(metrics.get("completed"), Some(&Value::Bool(false)));
        assert!(metrics.contains_key("config_error"));
    }

    #[test]
    fn unconfigurable_side_channel_cells_record_the_error() {
        // NBO = 1 has no safe TB-Window, so the defended cell cannot build
        // its TPRAC policy: it must record the failure, not panic.
        let spec = ScenarioSpec::SideChannel {
            nbo: 1,
            encryptions: 1,
            k0: 0,
            p0: 0,
            defended: true,
            seed: 0,
        };
        let metrics = execute(&spec);
        assert_eq!(metrics.get("completed"), Some(&Value::Bool(false)));
        assert!(metrics
            .get("config_error")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("no safe TB-Window")));
        assert_eq!(execute(&spec), metrics, "error cells are deterministic");
    }

    #[test]
    fn attacked_perf_cells_add_the_security_headline() {
        let cell = |attack| {
            ScenarioSpec::Perf(Box::new(crate::scenario::PerfScenario {
                setup: system_sim::MitigationSetup::AboOnly,
                rowhammer_threshold: 1024,
                prac_level: prac_core::config::PracLevel::One,
                workload: workloads::quick_suite().remove(0),
                instructions_per_core: 2_000,
                cores: 1,
                channels: 1,
                ranks: 0,
                profile: dram_sim::DeviceProfile::JedecBaseline,
                attack,
                seed: 5,
            }))
        };
        let benign = execute(&cell(None));
        assert!(!benign.contains_key("attack"));
        assert!(!benign.contains_key("max_row_activations"));
        let attacked = execute(&cell(Some(AttackKind::ManySided { sides: 4 })));
        assert_eq!(
            attacked.get("attack").and_then(Value::as_str),
            Some("nsided4")
        );
        assert!(attacked.contains_key("max_row_activations"));
        assert!(attacked.contains_key("nrh_breached"));
    }

    /// The per-cell oracle the group executor must reproduce: the cell's
    /// own protected and baseline runs, each with freshly generated traces.
    fn cold_metrics(perf: &crate::scenario::PerfScenario, engine: EngineKind) -> Map {
        let config = perf_experiment_config(perf, perf.setup.clone(), engine);
        match system_sim::run_workload_normalized(&config, &perf.workload.workload, perf.seed) {
            Ok((_, protected, baseline)) => perf_metrics(perf, &protected, &baseline),
            Err(error) => perf_config_error(perf, &error),
        }
    }

    #[test]
    fn grouped_execution_is_bit_identical_to_cold_cells() {
        // The group executor must reproduce the per-cell path byte for byte
        // for every kind of member: the shared baseline, ABO, ACB, TPRAC
        // and PARA cells, alone and grouped.
        let cell = |setup: MitigationSetup, nrh: u32| crate::scenario::PerfScenario {
            setup,
            rowhammer_threshold: nrh,
            prac_level: prac_core::config::PracLevel::One,
            workload: workloads::quick_suite().remove(0),
            instructions_per_core: 4_000,
            cores: 2,
            channels: 1,
            ranks: 0,
            profile: dram_sim::DeviceProfile::JedecBaseline,
            attack: None,
            seed: 21,
        };
        let cells = [
            cell(MitigationSetup::BaselineNoAbo, 1024),
            cell(MitigationSetup::AboOnly, 1024),
            cell(MitigationSetup::AboPlusAcbRfm, 1024),
            cell(
                MitigationSetup::Tprac {
                    tref_rate: prac_core::tprac::TrefRate::None,
                    counter_reset: true,
                },
                1024,
            ),
            cell(
                MitigationSetup::Para {
                    one_in: 64,
                    seed: system_sim::PARA_DEFAULT_SEED,
                },
                1024,
            ),
        ];
        for engine in [EngineKind::Tick, EngineKind::Event] {
            let refs: Vec<&crate::scenario::PerfScenario> = cells.iter().collect();
            let grouped = execute_perf_group(&refs, engine);
            for (perf, grouped_metrics) in cells.iter().zip(&grouped) {
                let cold = cold_metrics(perf, engine);
                assert_eq!(
                    grouped_metrics,
                    &cold,
                    "{engine:?}/{}: grouped result diverged from the cold run",
                    perf.setup.slug()
                );
                assert_eq!(
                    execute_perf_group(&[perf], engine),
                    [cold],
                    "{engine:?}/{}: a group of one diverged from the cold run",
                    perf.setup.slug()
                );
            }
        }
    }

    #[test]
    fn grouped_execution_records_config_errors_per_cell() {
        let cell = |setup: MitigationSetup| crate::scenario::PerfScenario {
            setup,
            rowhammer_threshold: 1, // no safe TB-Window exists at NRH = 1
            prac_level: prac_core::config::PracLevel::One,
            workload: workloads::quick_suite().remove(0),
            instructions_per_core: 1_000,
            cores: 1,
            channels: 1,
            ranks: 0,
            profile: dram_sim::DeviceProfile::JedecBaseline,
            attack: None,
            seed: 3,
        };
        let cells = [
            cell(MitigationSetup::Tprac {
                tref_rate: prac_core::tprac::TrefRate::None,
                counter_reset: true,
            }),
            cell(MitigationSetup::AboOnly),
        ];
        let refs: Vec<&crate::scenario::PerfScenario> = cells.iter().collect();
        let grouped = execute_perf_group(&refs, EngineKind::default());
        assert_eq!(grouped[0].get("completed"), Some(&Value::Bool(false)));
        assert!(grouped[0].contains_key("config_error"));
        assert_eq!(grouped[0], cold_metrics(&cells[0], EngineKind::default()));
        assert_eq!(grouped[1], cold_metrics(&cells[1], EngineKind::default()));
    }

    #[test]
    fn unbuildable_baselines_record_each_cells_error() {
        // Three channels is not a power of two, so no leg of the group,
        // the shared baseline included, can be configured.
        let cell = |setup: MitigationSetup| crate::scenario::PerfScenario {
            setup,
            rowhammer_threshold: 1024,
            prac_level: prac_core::config::PracLevel::One,
            workload: workloads::quick_suite().remove(0),
            instructions_per_core: 1_000,
            cores: 1,
            channels: 3,
            ranks: 0,
            profile: dram_sim::DeviceProfile::JedecBaseline,
            attack: None,
            seed: 3,
        };
        let cells = [
            cell(MitigationSetup::BaselineNoAbo),
            cell(MitigationSetup::AboOnly),
        ];
        let refs: Vec<&crate::scenario::PerfScenario> = cells.iter().collect();
        let grouped = execute_perf_group(&refs, EngineKind::default());
        for (perf, metrics) in cells.iter().zip(&grouped) {
            assert!(metrics.contains_key("config_error"));
            assert_eq!(metrics, &cold_metrics(perf, EngineKind::default()));
        }
    }

    #[test]
    fn perf_metrics_are_engine_independent() {
        let spec = ScenarioSpec::Perf(Box::new(crate::scenario::PerfScenario {
            setup: system_sim::MitigationSetup::AboOnly,
            rowhammer_threshold: 1024,
            prac_level: prac_core::config::PracLevel::One,
            workload: workloads::quick_suite().remove(0),
            instructions_per_core: 5_000,
            cores: 2,
            channels: 1,
            ranks: 0,
            profile: dram_sim::DeviceProfile::JedecBaseline,
            attack: None,
            seed: 41,
        }));
        assert_eq!(
            execute_with(&spec, EngineKind::Tick),
            execute_with(&spec, EngineKind::Event),
            "cached metrics must stay valid across engines"
        );
    }
}
