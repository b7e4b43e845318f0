//! Differential harness for the two simulation engines.
//!
//! The event-driven engine claims to visit only the ticks that matter; the
//! legacy tick engine visits all of them.  These tests race the two engines
//! over quick-suite workloads under every mitigation configuration and
//! require **bit-for-bit identical** `SystemResult`s — per-core IPC inputs
//! (instructions *and* cycles), slowdown/normalisation inputs, ABO/ACB/TB
//! RFM counts, the exact cycle of every issued RFM (via the RFM log), and
//! the energy-model inputs (activations, refreshes, mitigations).
//!
//! A broader sweep over the full quick suite is `#[ignore]`d here and run in
//! release mode by the dedicated CI job.

use system_sim::{
    mitigation_registry, run_workload, EngineKind, ExperimentConfig, MitigationSetup, SystemResult,
};
use system_sim::{SystemConfig, SystemSimulation};
use workloads::{quick_suite, MemoryIntensity, WorkloadSpec};

/// Every registered mitigation configuration.  Iterating the registry (not a
/// hand-written list) means an engine added to
/// `system_sim::mitigation_registry` — present or future — is automatically
/// raced tick-vs-event here; a registry entry can never ship without
/// differential coverage.
fn all_setups() -> Vec<MitigationSetup> {
    let setups: Vec<MitigationSetup> = mitigation_registry()
        .into_iter()
        .map(|descriptor| descriptor.setup)
        .collect();
    // Guard against the registry accidentally shrinking below the paper's
    // own sweep (baseline + 2 insecure + 3 TPRAC variants + PRFM + PARA).
    assert!(setups.len() >= 8, "registry lost entries: {setups:?}");
    setups
}

fn run_under(
    engine: EngineKind,
    setup: &MitigationSetup,
    workload: &WorkloadSpec,
    instructions: u64,
    channels: u32,
    seed: u64,
) -> SystemResult {
    let config = ExperimentConfig::new(setup.clone(), instructions)
        .with_cores(2)
        .with_channels(channels)
        .with_engine(engine);
    run_workload(&config, &workload.workload, seed).expect("registered setups resolve at NRH 1024")
}

/// Asserts both engines produce the same result, with field-by-field
/// messages before the final whole-struct comparison so a divergence names
/// the statistic that drifted.
fn assert_engines_agree(setup: &MitigationSetup, workload: &WorkloadSpec, instructions: u64) {
    assert_engines_agree_on_channels(setup, workload, instructions, 1);
}

/// [`assert_engines_agree`] on a multi-channel memory subsystem: the race
/// covers the per-channel fan-out, the min-across-channels wake-up
/// computation, and the per-channel statistics blocks (compared by the final
/// whole-struct equality).
fn assert_engines_agree_on_channels(
    setup: &MitigationSetup,
    workload: &WorkloadSpec,
    instructions: u64,
    channels: u32,
) {
    let seed = 0xD1FF ^ instructions;
    let ticked = run_under(
        EngineKind::Tick,
        setup,
        workload,
        instructions,
        channels,
        seed,
    );
    let evented = run_under(
        EngineKind::Event,
        setup,
        workload,
        instructions,
        channels,
        seed,
    );
    let context = format!(
        "setup {:?} workload {} channels {channels}",
        setup.label(),
        workload.workload.name
    );

    assert_eq!(
        ticked.elapsed_ticks, evented.elapsed_ticks,
        "elapsed ticks diverged: {context}"
    );
    assert_eq!(
        ticked.completed, evented.completed,
        "completion diverged: {context}"
    );
    for (core, (t, e)) in ticked
        .core_stats
        .iter()
        .zip(evented.core_stats.iter())
        .enumerate()
    {
        assert_eq!(
            (t.instructions, t.cycles),
            (e.instructions, e.cycles),
            "core {core} progress diverged: {context}"
        );
    }
    assert_eq!(
        ticked.controller_stats, evented.controller_stats,
        "controller stats diverged: {context}"
    );
    assert_eq!(
        ticked.dram_stats, evented.dram_stats,
        "DRAM stats diverged: {context}"
    );
    assert_eq!(
        ticked.channel_stats, evented.channel_stats,
        "per-channel stats diverged: {context}"
    );
    assert_eq!(
        ticked.rfm_log, evented.rfm_log,
        "RFM issue cycles diverged: {context}"
    );
    assert_eq!(ticked, evented, "results diverged: {context}");
    assert!(
        ticked.completed,
        "equivalence run hit the tick cap (budget too small to be meaningful): {context}"
    );
}

/// One workload per memory-intensity band, to keep the debug-mode runtime
/// inside the tier-1 budget while still covering the interesting regimes
/// (DRAM-saturated, mixed, and cache-resident).
fn representative_workloads() -> Vec<WorkloadSpec> {
    let suite = quick_suite();
    [
        MemoryIntensity::High,
        MemoryIntensity::Medium,
        MemoryIntensity::Low,
    ]
    .into_iter()
    .filter_map(|band| suite.iter().find(|w| w.intensity == band).cloned())
    .collect()
}

#[test]
fn engines_agree_across_all_mitigation_setups() {
    let workloads = representative_workloads();
    assert_eq!(workloads.len(), 3, "expected one workload per band");
    for setup in all_setups() {
        for workload in &workloads {
            assert_engines_agree(&setup, workload, 8_000);
        }
    }
}

/// Races the engines across multi-channel memory subsystems for every
/// registered mitigation: the event engine's min-across-channels wake-up and
/// the per-channel completion merge must stay cycle-exact as the channel
/// count grows.  The memory-bound workload keeps every channel busy.
#[test]
fn engines_agree_across_channel_counts() {
    let workloads = representative_workloads();
    let memory_bound = &workloads[0];
    assert_eq!(memory_bound.intensity, workloads::MemoryIntensity::High);
    for setup in all_setups() {
        for channels in [1u32, 2, 4] {
            assert_engines_agree_on_channels(&setup, memory_bound, 8_000, channels);
        }
    }
}

/// The adversarial co-runner knob: every registered attack pattern riding
/// one extra core next to a benign workload must stay cycle-exact across
/// the two engines — the attacker's flush+reload trace exercises demand
/// traffic, Alert assertion and mitigation wake-ups concurrently with
/// ordinary cache-filtered loads.
#[test]
fn engines_agree_with_an_adversarial_corunner() {
    let workloads = representative_workloads();
    let low_intensity = &workloads[workloads.len() - 1];
    for descriptor in workloads::attack_registry() {
        let run = |engine: EngineKind| {
            let config = ExperimentConfig::new(MitigationSetup::AboOnly, 6_000)
                .with_cores(1)
                .with_attack(Some(descriptor.kind))
                .with_engine(engine);
            run_workload(&config, &low_intensity.workload, 0xA77)
                .expect("ABO-only resolves at NRH 1024")
        };
        let ticked = run(EngineKind::Tick);
        let evented = run(EngineKind::Event);
        assert_eq!(
            ticked, evented,
            "attack {} diverged between engines",
            descriptor.slug
        );
        assert_eq!(ticked.core_stats.len(), 2, "benign core + attacker core");
    }
}

/// Adversarial traffic on a tiny device: flush-reload hammering across rows
/// of one bank drives the PRAC counters over a small Back-Off threshold, so
/// this differential run exercises the paths benign workloads never reach —
/// Alert assertion, the tABOACT-delayed ABO response, ABODelay suppression,
/// the per-tREFW counter reset (the test device's tREFW is ~200 k ticks),
/// and the obfuscation defense's per-tREFI injection decisions.
#[test]
fn engines_agree_under_adversarial_hammering() {
    use cpu_sim::config::CpuConfig;
    use cpu_sim::trace::{Trace, TraceOp};
    use dram_sim::device::DramDeviceConfig;
    use memctrl::controller::ControllerConfig;
    use prac_core::config::{MitigationPolicy, PracConfig};
    use prac_core::obfuscation::ObfuscationConfig;

    let hammer_trace = |base: u64| {
        // 8 KB stride lands each access in a different row of the same
        // small test device; the flush forces every load back to DRAM.
        let ops = (0..64u64)
            .flat_map(|i| {
                let addr = base + (i % 4) * 8192;
                [TraceOp::Load(addr), TraceOp::Flush(addr)]
            })
            .collect();
        Trace::new("hammer", ops)
    };
    let build = |obfuscated: bool, engine: EngineKind| {
        let prac = PracConfig::builder()
            .rowhammer_threshold(24)
            .back_off_threshold(24)
            .policy(MitigationPolicy::AboOnly)
            .build();
        let mut cpu = CpuConfig::tiny_for_tests();
        cpu.cores = 2;
        let config = SystemConfig {
            cpu,
            device: DramDeviceConfig::tiny_for_tests(prac),
            controller: ControllerConfig {
                obfuscation: obfuscated
                    .then(|| ObfuscationConfig::new(0.5).expect("valid injection probability")),
                // The injection decision is made once per tREFI — the same
                // cadence as periodic refresh, which wins the command slot
                // and leaves the channel blocked for tRFC, so (as in the
                // attack benches) obfuscation is exercised with refresh off.
                // The refresh+Alert interaction is covered by the
                // `obfuscated == false` variant.
                refresh_enabled: !obfuscated,
                ..ControllerConfig::default()
            },
            instructions_per_core: 6_000,
            max_ticks: 50_000_000,
            engine,
        };
        let traces = vec![hammer_trace(0x100_0000), hammer_trace(0x200_0000)];
        SystemSimulation::new(config, traces)
    };

    for obfuscated in [false, true] {
        let ticked = build(obfuscated, EngineKind::Tick).run();
        let evented = build(obfuscated, EngineKind::Event).run();
        assert_eq!(
            ticked, evented,
            "engines diverged under hammering (obfuscated: {obfuscated})"
        );
        assert!(ticked.completed, "hammering run hit the tick cap");
        assert!(
            ticked.dram_stats.alerts_asserted > 0,
            "the adversarial trace must actually trigger Alerts"
        );
        assert!(
            ticked.controller_stats.abo_rfms > 0,
            "Alerts must be answered with ABO-RFMs"
        );
        assert!(
            ticked.dram_stats.counter_resets > 0,
            "the run must span at least one tREFW counter reset"
        );
        if obfuscated {
            assert!(
                ticked.controller_stats.injected_rfms > 0,
                "the obfuscation defense must inject RFMs"
            );
        }
    }
}

/// A run that hits the tick cap mid-flight: the event engine's truncation
/// path (jump to `max_ticks`, bulk-credit the remaining stalled cycles,
/// report `completed == false`) must agree with the tick engine spinning
/// out the same budget — including the partial per-core progress and every
/// statistic accumulated up to the cap.
#[test]
fn engines_agree_when_hitting_the_tick_cap() {
    use cpu_sim::config::CpuConfig;
    use cpu_sim::trace::{Trace, TraceOp};
    use dram_sim::device::DramDeviceConfig;
    use memctrl::controller::ControllerConfig;
    use prac_core::config::PracConfig;

    let build = |max_ticks: u64, engine: EngineKind| {
        let prac = PracConfig::builder().rowhammer_threshold(1024).build();
        let mut cpu = CpuConfig::tiny_for_tests();
        cpu.cores = 2;
        let memory_trace = |base: u64| {
            let ops = (0..4096u64)
                .flat_map(|i| [TraceOp::Load(base + i * 64), TraceOp::Compute(9)])
                .collect();
            Trace::new("mem", ops)
        };
        let config = SystemConfig {
            cpu,
            device: DramDeviceConfig::tiny_for_tests(prac),
            controller: ControllerConfig::default(),
            instructions_per_core: 1_000_000,
            max_ticks,
            engine,
        };
        let traces = vec![memory_trace(0x1_0000_0000), memory_trace(0x2_0000_0000)];
        SystemSimulation::new(config, traces)
    };

    // A cap far below what the instruction budget needs, plus a degenerate
    // zero-tick cap exercising the empty-run path.
    for max_ticks in [0, 40_000] {
        let ticked = build(max_ticks, EngineKind::Tick).run();
        let evented = build(max_ticks, EngineKind::Event).run();
        assert_eq!(
            ticked, evented,
            "engines diverged at the tick cap (max_ticks: {max_ticks})"
        );
        assert!(!ticked.completed, "the cap must truncate the run");
        assert_eq!(ticked.elapsed_ticks, max_ticks);
    }
}

/// The rank race: a multi-rank device adds per-rank tFAW windows and
/// staggered refresh to both engines' timing paths, so every registered
/// mitigation on a 1- and 2-rank subsystem must stay **bit-for-bit
/// identical** tick-vs-event.
#[test]
fn engines_agree_across_rank_counts() {
    let workloads = representative_workloads();
    let memory_bound = &workloads[0];
    assert_eq!(memory_bound.intensity, workloads::MemoryIntensity::High);
    for setup in all_setups() {
        for ranks in [1u32, 2] {
            let seed = 0xD1FF ^ u64::from(ranks);
            let run = |engine: EngineKind| {
                let config = ExperimentConfig::new(setup.clone(), 4_000)
                    .with_cores(2)
                    .with_channels(2)
                    .with_ranks(ranks)
                    .with_engine(engine);
                run_workload(&config, &memory_bound.workload, seed)
                    .expect("registered setups resolve at NRH 1024")
            };
            let ticked = run(EngineKind::Tick);
            let evented = run(EngineKind::Event);
            assert_eq!(
                ticked,
                evented,
                "engines diverged at {ranks} rank(s): setup {:?}",
                setup.label()
            );
            assert!(ticked.completed, "rank race run hit the tick cap");
        }
    }
}

/// The full quick suite under every setup, at the quick campaign budget,
/// on both the single-channel and a four-channel subsystem.
/// Heavy: meant for the release-mode CI job
/// (`cargo test --release --test engine_equivalence -- --include-ignored`).
#[test]
#[ignore = "heavy sweep; run in release via the CI engine-equivalence job"]
fn engines_agree_on_the_full_quick_suite() {
    for setup in all_setups() {
        for workload in quick_suite() {
            for channels in [1u32, 4] {
                assert_engines_agree_on_channels(&setup, &workload, 20_000, channels);
            }
        }
    }
}
