//! The figure registry: every figure and table of the paper's evaluation,
//! re-expressed as a declarative [`Campaign`].
//!
//! Each entry mirrors the parameters of the former ad-hoc `fig*`/`table*`
//! bench binary (same sweeps, same seeds), so `prac-bench run --all`
//! reproduces the paper end-to-end, and new scenarios — another threshold,
//! another policy, another workload mix — are a few lines of data here
//! rather than a new binary.

use dram_sim::DeviceProfile;
use prac_core::config::PracLevel;
use prac_core::queue::QueueKind;
use prac_core::tprac::TrefRate;
use pracleak::covert::CovertChannelKind;
use system_sim::MitigationSetup;
use workloads::attack::{attack_registry, AttackKind};
use workloads::{full_suite, quick_suite, MemoryIntensity, WorkloadSpec};

use crate::scenario::{Campaign, PerfScenario, Scenario, ScenarioSpec};

/// Global knobs applied to every campaign a registry builds: sweep size and
/// simulation budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profile {
    /// Full paper-scale sweeps instead of the quick (CI / laptop) subset.
    pub full: bool,
    /// Instructions per core for full-system performance runs.
    pub instructions_per_core: u64,
    /// Cores for full-system performance runs.
    pub cores: u32,
    /// Memory channels for full-system performance runs (the `scaling`
    /// campaign sweeps its own channel counts and ignores this knob).
    pub channels: u32,
    /// Rank-count override for full-system performance runs.  `0` — the
    /// default — keeps the organisation's own rank count and every
    /// pre-existing cache key byte-identical.  The `scaling` campaign sweeps
    /// its own rank counts and ignores this knob.
    pub ranks: u32,
    /// Device timing profile for full-system performance runs.  The JEDEC
    /// baseline — the default — reproduces the paper's system and its exact
    /// cache keys.
    pub device_profile: DeviceProfile,
    /// Adversarial co-runner for full-system performance runs (the
    /// `attacks` campaign sweeps its own attack patterns and ignores this
    /// knob).  `None` — the default — keeps every cell benign and every
    /// pre-existing cache key byte-identical.
    pub attack: Option<AttackKind>,
}

impl Profile {
    /// The quick profile: reduced workload suite, short instruction budget.
    #[must_use]
    pub fn quick() -> Self {
        Self {
            full: false,
            instructions_per_core: 20_000,
            cores: 2,
            channels: 1,
            ranks: 0,
            device_profile: DeviceProfile::JedecBaseline,
            attack: None,
        }
    }

    /// The full paper-scale profile.
    #[must_use]
    pub fn full() -> Self {
        Self {
            full: true,
            instructions_per_core: 150_000,
            cores: 4,
            channels: 1,
            ranks: 0,
            device_profile: DeviceProfile::JedecBaseline,
            attack: None,
        }
    }

    fn suite(&self) -> Vec<WorkloadSpec> {
        if self.full {
            full_suite()
        } else {
            quick_suite()
        }
    }

    /// One representative workload per memory-intensity bucket.
    fn intensity_buckets(&self) -> Vec<WorkloadSpec> {
        let suite = self.suite();
        MemoryIntensity::ALL
            .into_iter()
            .filter_map(|band| suite.iter().find(|w| w.intensity == band).cloned())
            .collect()
    }

    fn nrh_sweep(&self) -> &'static [u32] {
        if self.full {
            &[128, 256, 512, 1024, 2048, 4096]
        } else {
            &[256, 1024, 4096]
        }
    }
}

/// Builds every registered campaign under the given profile, in paper order.
#[must_use]
pub fn all_campaigns(profile: &Profile) -> Vec<Campaign> {
    vec![
        fig03(profile),
        fig04(profile),
        fig05(profile),
        fig07(profile),
        fig09(profile),
        fig10(profile),
        fig11(profile),
        fig12(profile),
        fig13(profile),
        fig14(profile),
        table2(profile),
        table5(profile),
        storage(profile),
        defenses(profile),
        scaling(profile),
        attacks(profile),
    ]
}

/// Looks a campaign up by registry name.
#[must_use]
pub fn find_campaign(name: &str, profile: &Profile) -> Option<Campaign> {
    all_campaigns(profile).into_iter().find(|c| c.name == name)
}

/// Appends one performance cell per (workload × setup) pair.  Scenario
/// names embed the setup's stable slug.
#[allow(clippy::too_many_arguments)]
fn push_perf_matrix(
    campaign: &mut Campaign,
    profile: &Profile,
    suite: &[WorkloadSpec],
    setups: &[MitigationSetup],
    nrh: u32,
    prac_level: PracLevel,
    seed: u64,
    name_prefix: &str,
) {
    for workload in suite {
        for setup in setups {
            campaign.push(Scenario::new(
                format!("{name_prefix}{}/{}", workload.workload.name, setup.slug()),
                ScenarioSpec::Perf(Box::new(PerfScenario {
                    setup: setup.clone(),
                    rowhammer_threshold: nrh,
                    prac_level,
                    workload: workload.clone(),
                    instructions_per_core: profile.instructions_per_core,
                    cores: profile.cores,
                    channels: profile.channels,
                    ranks: profile.ranks,
                    profile: profile.device_profile,
                    attack: profile.attack,
                    seed,
                })),
            ));
        }
    }
}

fn fig03(profile: &Profile) -> Campaign {
    let (nbo, window_ns) = if profile.full {
        (256, 2_000_000.0)
    } else {
        (128, 400_000.0)
    };
    let mut campaign = Campaign::new(
        "fig03",
        "Attacker-observed latency with and without concurrent Alert Back-Off",
        "Mean spiked latencies of ~545/~976/~1669 ns for 1/2/4 RFMs per ABO, flat baseline without ABO",
    );
    campaign.push(Scenario::new(
        "no-abo",
        ScenarioSpec::AboLatency {
            prac_level: None,
            nbo,
            window_ns,
        },
    ));
    for level in PracLevel::all() {
        campaign.push(Scenario::new(
            format!("prac-{}", level.rfms_per_alert()),
            ScenarioSpec::AboLatency {
                prac_level: Some(level),
                nbo,
                window_ns,
            },
        ));
    }
    campaign
}

/// The side-channel parameters each profile uses: `(nbo, encryptions)`.
fn side_channel_shape(profile: &Profile) -> (u32, u32) {
    if profile.full {
        (256, 200)
    } else {
        (128, 100)
    }
}

fn fig04(profile: &Profile) -> Campaign {
    let (nbo, encryptions) = side_channel_shape(profile);
    let mut campaign = Campaign::new(
        "fig04",
        "One PRACLeak side-channel instance (p0 = 0, k0 = 0)",
        "Victim drives ~207 ACTs to Row-0; victim + attacker ACTs to the hottest row sum to NBO",
    );
    campaign.push(Scenario::new(
        "k0-0x00",
        ScenarioSpec::SideChannel {
            nbo,
            encryptions,
            k0: 0,
            p0: 0,
            defended: false,
            seed: 0x5ec2e7,
        },
    ));
    campaign
}

fn fig05(profile: &Profile) -> Campaign {
    let (nbo, encryptions) = side_channel_shape(profile);
    let step = if profile.full { 4 } else { 16 };
    let mut campaign = Campaign::new(
        "fig05",
        "Key-byte sweep: leaked row index vs secret key byte 0",
        "The hottest row walks Row-0..Row-15 with k0; the attacker recovers the top nibble of every key byte",
    );
    for k0 in (0..256usize).step_by(step) {
        campaign.push(Scenario::new(
            format!("k0-{k0:#04x}"),
            ScenarioSpec::SideChannel {
                nbo,
                encryptions,
                k0: k0 as u8,
                p0: 0,
                defended: false,
                seed: 0xF165,
            },
        ));
    }
    campaign
}

fn fig07(_profile: &Profile) -> Campaign {
    let mut campaign = Campaign::new(
        "fig07",
        "Worst-case activations (TMAX) vs TB-Window, and the solved TB-Window per threshold",
        "TMAX(1 tREFI) = 572 (reset) / 736 (no reset); NRH = 1024 needs ~one TB-RFM per 1.6 tREFI",
    );
    for counter_reset in [true, false] {
        campaign.push(Scenario::new(
            format!("tmax-series-{}", reset_slug(counter_reset)),
            ScenarioSpec::TmaxSeries {
                nbo: 4096,
                counter_reset,
            },
        ));
    }
    for &nrh in &[128u32, 256, 512, 1024, 2048, 4096] {
        for counter_reset in [true, false] {
            campaign.push(Scenario::new(
                format!("solve-nrh{nrh}-{}", reset_slug(counter_reset)),
                ScenarioSpec::SolveWindow { nrh, counter_reset },
            ));
        }
    }
    campaign
}

fn fig09(profile: &Profile) -> Campaign {
    let (nbo, encryptions) = side_channel_shape(profile);
    let step = if profile.full { 8 } else { 32 };
    let mut campaign = Campaign::new(
        "fig09",
        "Empirical TPRAC validation: row triggering the first RFM, with and without the defense",
        "Without TPRAC the first-RFM row tracks the key nibble; with TPRAC there is no correlation and 0 ABO-RFMs",
    );
    for k0 in (0..256usize).step_by(step) {
        for defended in [false, true] {
            campaign.push(Scenario::new(
                format!(
                    "k0-{k0:#04x}-{}",
                    if defended { "tprac" } else { "undefended" }
                ),
                ScenarioSpec::SideChannel {
                    nbo,
                    encryptions,
                    k0: k0 as u8,
                    p0: 0,
                    defended,
                    seed: 0x916,
                },
            ));
        }
    }
    campaign
}

fn fig10(profile: &Profile) -> Campaign {
    let mut campaign = Campaign::new(
        "fig10",
        "Normalised performance of TPRAC vs the insecure baselines at NRH = 1024",
        "ABO-Only ~1.00, ABO+ACB-RFM ~0.993, TPRAC ~0.966 on average; up to ~6-8% on memory-intensive workloads",
    );
    push_perf_matrix(
        &mut campaign,
        profile,
        &profile.suite(),
        &MitigationSetup::figure10_set(),
        1024,
        PracLevel::One,
        0x000F_1610,
        "",
    );
    campaign
}

fn fig11(profile: &Profile) -> Campaign {
    let mut campaign = Campaign::new(
        "fig11",
        "Sensitivity to the PRAC level (1, 2 or 4 RFMs per Alert) at NRH = 1024",
        "Performance is flat across PRAC-1/2/4 because benign workloads rarely trigger ABOs",
    );
    let suite = profile.suite();
    for level in PracLevel::all() {
        push_perf_matrix(
            &mut campaign,
            profile,
            &suite,
            &MitigationSetup::figure10_set(),
            1024,
            level,
            0x000F_1611 ^ u64::from(level.rfms_per_alert()),
            &format!("prac{}/", level.rfms_per_alert()),
        );
    }
    campaign
}

fn fig12(profile: &Profile) -> Campaign {
    let mut campaign = Campaign::new(
        "fig12",
        "TPRAC performance vs Targeted-Refresh rate at NRH = 1024",
        "Slowdowns of 3.4%/2.4%/2.0%/1.4%/~0% with no TREF and one TREF per 4/3/2/1 tREFI",
    );
    let setups: Vec<MitigationSetup> = TrefRate::figure12_sweep()
        .into_iter()
        .map(|tref_rate| MitigationSetup::Tprac {
            tref_rate,
            counter_reset: true,
        })
        .collect();
    push_perf_matrix(
        &mut campaign,
        profile,
        &profile.suite(),
        &setups,
        1024,
        PracLevel::One,
        0x000F_1612,
        "",
    );
    campaign
}

fn nrh_sweep_setups() -> Vec<MitigationSetup> {
    vec![
        MitigationSetup::AboOnly,
        MitigationSetup::AboPlusAcbRfm,
        MitigationSetup::Tprac {
            tref_rate: TrefRate::None,
            counter_reset: true,
        },
        MitigationSetup::Tprac {
            tref_rate: TrefRate::EveryTrefi(4),
            counter_reset: true,
        },
        MitigationSetup::Tprac {
            tref_rate: TrefRate::EveryTrefi(1),
            counter_reset: true,
        },
    ]
}

fn fig13(profile: &Profile) -> Campaign {
    let mut campaign = Campaign::new(
        "fig13",
        "Normalised performance vs RowHammer threshold (NRH 128-4096)",
        "TPRAC slowdowns of 0.6%/1.6%/3.4% at NRH = 4096/2048/1024, growing to 22.6% at 128",
    );
    let suite = profile.suite();
    let setups = nrh_sweep_setups();
    for &nrh in profile.nrh_sweep() {
        push_perf_matrix(
            &mut campaign,
            profile,
            &suite,
            &setups,
            nrh,
            PracLevel::One,
            0x000F_1613 ^ u64::from(nrh),
            &format!("nrh{nrh}/"),
        );
    }
    campaign
}

fn fig14(profile: &Profile) -> Campaign {
    let mut campaign = Campaign::new(
        "fig14",
        "TPRAC with vs without per-row counter reset, across RowHammer thresholds",
        "At NRH >= 1024 the reset policy changes performance by < 1%; at NRH = 128 it is worth ~3.4%",
    );
    let suite = profile.suite();
    let setups: Vec<MitigationSetup> = [
        (true, TrefRate::None),
        (false, TrefRate::None),
        (true, TrefRate::EveryTrefi(1)),
        (false, TrefRate::EveryTrefi(1)),
    ]
    .into_iter()
    .map(|(counter_reset, tref_rate)| MitigationSetup::Tprac {
        tref_rate,
        counter_reset,
    })
    .collect();
    for &nrh in profile.nrh_sweep() {
        push_perf_matrix(
            &mut campaign,
            profile,
            &suite,
            &setups,
            nrh,
            PracLevel::One,
            0x000F_1614 ^ u64::from(nrh),
            &format!("nrh{nrh}/"),
        );
    }
    campaign
}

fn table2(profile: &Profile) -> Campaign {
    let symbols = if profile.full { 32 } else { 8 };
    let nbos: &[u32] = if profile.full {
        &[256, 512, 1024]
    } else {
        &[256, 512]
    };
    let mut campaign = Campaign::new(
        "table2",
        "Covert-channel transmission period and bitrate",
        "Activity-Based: 24.1-91.8 us, 41.4-10.9 Kbps; Activation-Count-Based: 64.7-257.6 us, 123.6-38.8 Kbps",
    );
    for kind in [
        CovertChannelKind::ActivityBased,
        CovertChannelKind::ActivationCountBased,
    ] {
        for &nbo in nbos {
            campaign.push(Scenario::new(
                format!(
                    "{}-nbo{nbo}",
                    match kind {
                        CovertChannelKind::ActivityBased => "activity",
                        CovertChannelKind::ActivationCountBased => "activation-count",
                    }
                ),
                ScenarioSpec::Covert {
                    kind,
                    nbo,
                    symbols,
                    seed: 0xBEEF ^ u64::from(nbo),
                },
            ));
        }
    }
    campaign
}

fn table5(profile: &Profile) -> Campaign {
    let mut campaign = Campaign::new(
        "table5",
        "Energy overhead of TPRAC (mitigation vs execution-time energy) per threshold",
        "Total overheads of 44.3%/26.1%/10.4%/7.4%/2.6%/1.0% for NRH = 128...4096",
    );
    let suite = profile.suite();
    let setup = MitigationSetup::Tprac {
        tref_rate: TrefRate::None,
        counter_reset: true,
    };
    for &nrh in profile.nrh_sweep() {
        push_perf_matrix(
            &mut campaign,
            profile,
            &suite,
            std::slice::from_ref(&setup),
            nrh,
            PracLevel::One,
            0x7AB1E5 ^ u64::from(nrh),
            &format!("nrh{nrh}/"),
        );
    }
    campaign
}

fn storage(_profile: &Profile) -> Campaign {
    let mut campaign = Campaign::new(
        "storage",
        "Storage overhead of the mitigation-queue designs (Section 6.8)",
        "TPRAC's whole-channel cost is a few hundred bytes; the idealised priority queue needs megabytes",
    );
    for (slug, queue) in [
        ("single-entry-frequency", QueueKind::SingleEntryFrequency),
        ("fifo-4", QueueKind::Fifo { capacity: 4 }),
        ("fifo-16", QueueKind::Fifo { capacity: 16 }),
        ("priority", QueueKind::Priority),
    ] {
        campaign.push(Scenario::new(
            slug,
            ScenarioSpec::Storage { queue, banks: 128 },
        ));
    }
    campaign
}

/// Beyond-paper defense sweep: every registered mitigation engine (PRFM and
/// PARA alongside the paper's set) at the headline threshold, so new engines
/// added to `system_sim::mitigation_registry` get campaign coverage and a
/// direct performance comparison against TPRAC.
fn defenses(profile: &Profile) -> Campaign {
    let mut campaign = Campaign::new(
        "defenses",
        "Defense comparison across every registered mitigation engine at NRH = 1024",
        "TPRAC ~0.966 normalised; PRFM pays its fixed cadence regardless of activity; PARA scales with activation rate",
    );
    let setups: Vec<MitigationSetup> = system_sim::mitigation_registry()
        .into_iter()
        .filter(|setup| *setup != MitigationSetup::BaselineNoAbo)
        .collect();
    push_perf_matrix(
        &mut campaign,
        profile,
        &profile.suite(),
        &setups,
        1024,
        PracLevel::One,
        0x000F_DEF5,
        "",
    );
    // Cadence sweep for the periodic baseline: denser RFMs cost more.
    let prfm_sweep: Vec<MitigationSetup> = [1u32, 4, 16]
        .into_iter()
        .map(|every_trefi| MitigationSetup::Prfm { every_trefi })
        .collect();
    push_perf_matrix(
        &mut campaign,
        profile,
        &profile.suite(),
        &prfm_sweep,
        1024,
        PracLevel::One,
        0x000F_DEF5,
        "cadence/",
    );
    campaign
}

/// Beyond-paper topology-scaling sweep: every registered mitigation engine
/// across 1, 2 and 4 memory channels — and, along the orthogonal axis, rank
/// counts 1 and 2 on a single channel — with one representative workload per
/// memory-intensity bucket.  Each channel keeps its own mitigation engine
/// and ABO responder (as in hardware), so this campaign answers questions
/// the single-channel registry cannot: how per-channel RFM budgets, TB-RFM
/// stalls, channel interleaving and rank-level parallelism (per-rank tFAW,
/// staggered refresh) compose as the memory system grows.
fn scaling(profile: &Profile) -> Campaign {
    let mut campaign = Campaign::new(
        "scaling",
        "Topology scaling: every registered mitigation across 1/2/4 channels and 1/2 ranks",
        "Beyond-paper: mitigation slowdowns shrink with channel parallelism; per-channel RFM budgets multiply",
    );
    let buckets = profile.intensity_buckets();
    for channels in [1u32, 2, 4] {
        for setup in system_sim::mitigation_registry() {
            for workload in &buckets {
                campaign.push(Scenario::new(
                    format!("ch{channels}/{}/{}", workload.workload.name, setup.slug()),
                    ScenarioSpec::Perf(Box::new(PerfScenario {
                        setup: setup.clone(),
                        rowhammer_threshold: 1024,
                        prac_level: PracLevel::One,
                        workload: workload.clone(),
                        instructions_per_core: profile.instructions_per_core,
                        cores: profile.cores,
                        channels,
                        ranks: 0,
                        profile: DeviceProfile::JedecBaseline,
                        attack: profile.attack,
                        seed: 0x5CA_11E5,
                    })),
                ));
            }
        }
    }
    // The rank axis: overriding the paper organisation's 4 ranks down to 1
    // or 2 shrinks bank-level parallelism while the per-rank constraints
    // (tFAW window, refresh stagger under the vendor profiles) bind harder.
    for ranks in [1u32, 2] {
        for setup in system_sim::mitigation_registry() {
            for workload in &buckets {
                campaign.push(Scenario::new(
                    format!("rank{ranks}/{}/{}", workload.workload.name, setup.slug()),
                    ScenarioSpec::Perf(Box::new(PerfScenario {
                        setup: setup.clone(),
                        rowhammer_threshold: 1024,
                        prac_level: PracLevel::One,
                        workload: workload.clone(),
                        instructions_per_core: profile.instructions_per_core,
                        cores: profile.cores,
                        channels: 1,
                        ranks,
                        profile: DeviceProfile::JedecBaseline,
                        attack: profile.attack,
                        seed: 0x5CA_11E5,
                    })),
                ));
            }
        }
    }
    campaign
}

/// Beyond-paper adversarial sweep: every registered attack pattern against
/// every registered mitigation engine across the NRH sweep, through the
/// serialized flush+access attacker model.  Each cell reports the per-run
/// security metrics (peak per-row activation count vs `NRH`, aggressor
/// coverage, RFM pressure and the slowdown the defense imposes on the
/// attacker), so "which access pattern defeats which mitigation at which
/// threshold" is one `prac-bench run attacks` away.
fn attacks(profile: &Profile) -> Campaign {
    let mut campaign = Campaign::new(
        "attacks",
        "Adversarial sweep: every registered attack pattern vs every registered mitigation per NRH",
        "Beyond-paper: undefended cells breach NRH; TPRAC holds the peak per-row activation count below every threshold",
    );
    // The quick profile trims the threshold sweep: access budgets scale
    // with NRH × pattern fan-out (see below), so the NRH = 4096 column
    // belongs to the paper-scale profile.
    let thresholds: Vec<u32> = if profile.full {
        profile.nrh_sweep().to_vec()
    } else {
        vec![256, 1024]
    };
    for &nrh in &thresholds {
        for attack in attack_registry() {
            // A breached-or-defended verdict is only meaningful when an
            // *undefended* run of the same budget reaches NRH: grant each
            // cell the pattern's own breach budget plus 25% slack (RFM
            // stalls never consume accesses, so slack only buys margin on
            // the per-row dilution estimate).
            let accesses = attack.accesses_to_breach(nrh) * 5 / 4;
            for setup in system_sim::mitigation_registry() {
                campaign.push(Scenario::new(
                    format!("nrh{nrh}/{}/{}", attack.slug(), setup.slug()),
                    ScenarioSpec::Attack {
                        attack,
                        setup,
                        nrh,
                        accesses,
                        profile: DeviceProfile::JedecBaseline,
                        seed: 0x00A7_7ACC ^ u64::from(nrh),
                    },
                ));
            }
        }
    }
    // The on-die ECC sweep: every attack pattern against each ECC-equipped
    // vendor profile, undefended, at the lowest threshold of the sweep.  An
    // undefended run is guaranteed to overshoot NRH, so these cells always
    // exercise the post-breach adjudication (flips corrected vs escaped).
    let ecc_nrh = thresholds[0];
    for device_profile in DeviceProfile::registry() {
        if device_profile.on_die_ecc().is_none() {
            continue;
        }
        for attack in attack_registry() {
            let accesses = attack.accesses_to_breach(ecc_nrh) * 5 / 4;
            campaign.push(Scenario::new(
                format!("ecc/{}/{}", device_profile.slug(), attack.slug()),
                ScenarioSpec::Attack {
                    attack,
                    setup: MitigationSetup::BaselineNoAbo,
                    nrh: ecc_nrh,
                    accesses,
                    profile: device_profile,
                    seed: 0x00A7_7ACC ^ u64::from(ecc_nrh),
                },
            ));
        }
    }
    campaign
}

fn reset_slug(counter_reset: bool) -> &'static str {
    if counter_reset {
        "reset"
    } else {
        "noreset"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_at_least_ten_campaigns_with_unique_names() {
        let campaigns = all_campaigns(&Profile::quick());
        assert!(campaigns.len() >= 10, "{} campaigns", campaigns.len());
        let mut names = std::collections::HashSet::new();
        for campaign in &campaigns {
            assert!(
                names.insert(campaign.name.clone()),
                "duplicate {}",
                campaign.name
            );
            assert!(!campaign.scenarios.is_empty(), "{} is empty", campaign.name);
        }
    }

    #[test]
    fn scenario_names_are_unique_within_each_campaign() {
        for profile in [Profile::quick(), Profile::full()] {
            for campaign in all_campaigns(&profile) {
                let mut names = std::collections::HashSet::new();
                for scenario in &campaign.scenarios {
                    assert!(
                        names.insert(scenario.name.clone()),
                        "duplicate scenario {} in {}",
                        scenario.name,
                        campaign.name
                    );
                }
            }
        }
    }

    #[test]
    fn quick_and_full_profiles_produce_different_cache_keys() {
        let quick = find_campaign("fig10", &Profile::quick()).unwrap();
        let full = find_campaign("fig10", &Profile::full()).unwrap();
        assert_ne!(quick.scenarios[0].key(), full.scenarios[0].key());
    }

    #[test]
    fn fig10_covers_the_quick_suite_times_three_setups() {
        let campaign = find_campaign("fig10", &Profile::quick()).unwrap();
        assert_eq!(campaign.scenarios.len(), 9 * 3);
    }

    #[test]
    fn attacks_campaign_crosses_both_registries_per_threshold() {
        let attacks = attack_registry().len();
        let mitigations = system_sim::mitigation_registry().len();
        let ecc_profiles = DeviceProfile::registry()
            .into_iter()
            .filter(|p| p.on_die_ecc().is_some())
            .count();
        let campaign = find_campaign("attacks", &Profile::quick()).unwrap();
        assert_eq!(
            campaign.scenarios.len(),
            attacks * mitigations * 2 + ecc_profiles * attacks
        );
        let full = find_campaign("attacks", &Profile::full()).unwrap();
        assert_eq!(
            full.scenarios.len(),
            attacks * mitigations * Profile::full().nrh_sweep().len() + ecc_profiles * attacks
        );
        assert!(attacks >= 6, "{attacks} registered attack patterns");
        // Every cell's budget is at least the pattern's breach budget, so
        // an undefended run can genuinely reach NRH.
        for scenario in &campaign.scenarios {
            let ScenarioSpec::Attack {
                attack,
                nrh,
                accesses,
                ..
            } = &scenario.spec
            else {
                panic!("{} is not an attack cell", scenario.name);
            };
            assert!(
                *accesses >= attack.accesses_to_breach(*nrh),
                "{}: starved budget",
                scenario.name
            );
        }
        // Every cell is an Attack spec naming both sides.
        for scenario in &campaign.scenarios {
            assert!(
                matches!(scenario.spec, ScenarioSpec::Attack { .. }),
                "{} is not an attack cell",
                scenario.name
            );
        }
    }

    #[test]
    fn attacks_campaign_includes_every_ecc_profile() {
        let campaign = find_campaign("attacks", &Profile::quick()).unwrap();
        for device_profile in DeviceProfile::registry() {
            if device_profile.on_die_ecc().is_none() {
                continue;
            }
            let cells = campaign
                .scenarios
                .iter()
                .filter(|s| {
                    matches!(
                        &s.spec,
                        ScenarioSpec::Attack { profile, .. } if *profile == device_profile
                    )
                })
                .count();
            assert_eq!(
                cells,
                attack_registry().len(),
                "{} should face every attack",
                device_profile.slug()
            );
        }
    }

    #[test]
    fn scaling_campaign_sweeps_ranks_alongside_channels() {
        let campaign = find_campaign("scaling", &Profile::quick()).unwrap();
        let mitigations = system_sim::mitigation_registry().len();
        let buckets = Profile::quick().intensity_buckets().len();
        assert_eq!(campaign.scenarios.len(), (3 + 2) * mitigations * buckets);
        for ranks in [1u32, 2] {
            let cells: Vec<_> = campaign
                .scenarios
                .iter()
                .filter(|s| s.name.starts_with(&format!("rank{ranks}/")))
                .collect();
            assert_eq!(cells.len(), mitigations * buckets);
            for scenario in cells {
                let ScenarioSpec::Perf(perf) = &scenario.spec else {
                    panic!("{} is not a perf cell", scenario.name);
                };
                assert_eq!(perf.ranks, ranks);
                assert_eq!(perf.channels, 1);
            }
        }
        // The channel cells keep ranks = 0 (no override) so their
        // pre-existing cache keys survive the rank dimension.
        for scenario in &campaign.scenarios {
            if scenario.name.starts_with("ch") {
                let ScenarioSpec::Perf(perf) = &scenario.spec else {
                    panic!("{} is not a perf cell", scenario.name);
                };
                assert_eq!(perf.ranks, 0, "{}", scenario.name);
                assert_eq!(perf.profile, DeviceProfile::JedecBaseline);
            }
        }
    }

    #[test]
    fn profile_attack_knob_threads_into_perf_cells() {
        let mut profile = Profile::quick();
        profile.attack = Some(AttackKind::HalfDouble);
        let campaign = find_campaign("fig10", &profile).unwrap();
        for scenario in &campaign.scenarios {
            let ScenarioSpec::Perf(perf) = &scenario.spec else {
                panic!("fig10 holds perf cells");
            };
            assert_eq!(perf.attack, Some(AttackKind::HalfDouble));
        }
        // And the keys differ from the benign profile's.
        let benign = find_campaign("fig10", &Profile::quick()).unwrap();
        assert_ne!(campaign.scenarios[0].key(), benign.scenarios[0].key());
    }
}
