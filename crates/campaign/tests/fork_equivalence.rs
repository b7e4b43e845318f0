//! Fork-equivalence sweep for the pause/fork layer (`system_sim::snapshot`).
//!
//! Pausing a run on an arbitrary tick boundary, forking the paused state
//! and resuming must be bit-identical to the uninterrupted run.  The sweep
//! exercises every deep copy a fork takes: every registered mitigation
//! engine (with its internal scheduler state), every registered attack
//! pattern (with its address-stream state), multiple channel counts, and
//! both execution engines.  A final runner-level test asserts that grouped
//! campaign execution produces records identical to cell-by-cell
//! execution.

use campaign::exec::execute;
use campaign::{Campaign, CampaignRunner, PerfScenario, Scenario, ScenarioSpec};
use prac_core::config::PracLevel;
use system_sim::{
    attack_registry, mitigation_registry, workload_traces, AttackKind, EngineKind,
    ExperimentConfig, MitigationSetup, PrefixOutcome, SystemSimulation,
};
use workloads::quick_suite;

/// A RowHammer threshold every registry entry is solvable at.
const NRH: u32 = 1024;

fn config_for(
    setup: MitigationSetup,
    attack: Option<AttackKind>,
    channels: u32,
    engine: EngineKind,
) -> ExperimentConfig {
    ExperimentConfig::new(setup, 1_500)
        .with_engine(engine)
        .with_rowhammer_threshold(NRH)
        .with_cores(1)
        .with_channels(channels)
        .with_attack(attack)
}

/// Runs `config` cold, then paused-and-forked, and asserts the three
/// results (cold, forked resume, original resume) are identical.
fn assert_fork_equivalent(config: &ExperimentConfig, context: &str) {
    let system = config
        .build_system_config()
        .unwrap_or_else(|error| panic!("{context}: unbuildable config: {error}"));
    let workload = quick_suite().remove(0).workload;
    let traces = workload_traces(config, &system, &workload, 42);
    let cold = SystemSimulation::new(system.clone(), traces.clone()).run();
    // Late enough that mitigation engines have internal state to capture,
    // early enough that the run is guaranteed to still be in flight.
    let pause = (3 * cold.elapsed_ticks / 4).max(1);
    match SystemSimulation::new(system, traces).run_until(pause) {
        PrefixOutcome::Paused(prefix) => {
            assert_eq!(prefix.now(), pause, "{context}: paused at the wrong tick");
            let fork = prefix.fork();
            assert_eq!(fork.resume(), cold, "{context}: forked resume diverged");
            assert_eq!(prefix.resume(), cold, "{context}: original resume diverged");
        }
        PrefixOutcome::Finished(result) => {
            // Only reachable when the run is so short the pause point lands
            // past the end; the completed result must still be the cold one.
            assert_eq!(result, cold, "{context}: early finish diverged");
        }
    }
}

/// Every registered mitigation × every registered attack (plus no attack)
/// × both engines, single channel: the acceptance sweep.
#[test]
fn fork_equivalence_across_mitigation_and_attack_registries() {
    let attacks: Vec<Option<AttackKind>> = std::iter::once(None)
        .chain(attack_registry().into_iter().map(|a| Some(a.kind)))
        .collect();
    for engine in [EngineKind::Tick, EngineKind::Event] {
        for mitigation in mitigation_registry() {
            for attack in &attacks {
                let context = format!("{engine:?} / {} / {attack:?}", mitigation.slug);
                let config = config_for(mitigation.setup.clone(), *attack, 1, engine);
                assert_fork_equivalent(&config, &context);
            }
        }
    }
}

/// Channel counts 2 and 4 (1 is covered by the registry sweep above):
/// every mitigation, one representative attack, both engines.  The paused
/// state must carry every per-channel controller and device.
#[test]
fn fork_equivalence_across_channel_counts() {
    for engine in [EngineKind::Tick, EngineKind::Event] {
        for mitigation in mitigation_registry() {
            for channels in [2, 4] {
                let context = format!("{engine:?} / {} / {channels}ch", mitigation.slug);
                let config = config_for(
                    mitigation.setup.clone(),
                    Some(AttackKind::DoubleSided),
                    channels,
                    engine,
                );
                assert_fork_equivalent(&config, &context);
            }
        }
    }
}

/// Pause/fork/resume on a 2-rank device: the paused snapshot must carry
/// the per-rank tFAW activation rings and the staggered refresh windows,
/// so a fork taken mid-run replays the cold run exactly.  Every mitigation
/// under one representative attack, both engines.
#[test]
fn fork_equivalence_on_a_two_rank_device() {
    for engine in [EngineKind::Tick, EngineKind::Event] {
        for mitigation in mitigation_registry() {
            let context = format!("{engine:?} / {} / 2 ranks", mitigation.slug);
            let config = config_for(
                mitigation.setup.clone(),
                Some(AttackKind::DoubleSided),
                1,
                engine,
            )
            .with_ranks(2);
            assert_fork_equivalent(&config, &context);
        }
    }
}

/// A perf campaign whose cells share traces and a baseline leg must
/// produce the records that executing every cell on its own produces.
#[test]
fn prefix_grouped_campaign_matches_cell_by_cell_execution() {
    let cell = |name: &str, setup: MitigationSetup, seed: u64| {
        Scenario::new(
            name,
            ScenarioSpec::Perf(Box::new(PerfScenario {
                setup,
                rowhammer_threshold: NRH,
                prac_level: PracLevel::One,
                workload: quick_suite().remove(0),
                instructions_per_core: 2_000,
                cores: 2,
                channels: 1,
                ranks: 0,
                profile: dram_sim::DeviceProfile::JedecBaseline,
                attack: Some(AttackKind::SingleSided),
                seed,
            })),
        )
    };
    let mut campaign = Campaign::new("fork-eq", "Fork equivalence", "test");
    // Four cells sharing one group (same everything but the setup) …
    campaign.push(cell("baseline", MitigationSetup::BaselineNoAbo, 9));
    campaign.push(cell("abo", MitigationSetup::AboOnly, 9));
    campaign.push(cell("acb", MitigationSetup::AboPlusAcbRfm, 9));
    campaign.push(cell(
        "para",
        MitigationSetup::Para {
            one_in: 128,
            seed: system_sim::PARA_DEFAULT_SEED,
        },
        9,
    ));
    // … plus a cell in its own group (different seed → different traces).
    campaign.push(cell("abo-lone", MitigationSetup::AboOnly, 10));

    let grouped = CampaignRunner::new()
        .with_workers(2)
        .run(&campaign)
        .expect("campaign runs");
    assert_eq!(grouped.records.len(), campaign.scenarios.len());
    for (record, scenario) in grouped.records.iter().zip(&campaign.scenarios) {
        assert_eq!(record.scenario.name, scenario.name);
        assert_eq!(
            record.metrics,
            execute(&scenario.spec),
            "metrics diverged for {}",
            scenario.name
        );
        assert!(!record.cached);
    }
}
