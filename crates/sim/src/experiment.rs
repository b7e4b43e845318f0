//! Mitigation setups and workload runners for the performance experiments
//! (Figures 10–14).
//!
//! Every performance figure compares one or more *protected* configurations
//! against the same baseline: a PRAC-enabled DDR5 system with mitigation
//! disabled outright (no Alert Back-Off, no proactive RFMs of any kind).
//! A [`MitigationSetup`] is the serialisable description of one
//! configuration: it carries its stable slug, label and summary, and
//! resolves (against a RowHammer threshold) into a full [`SystemConfig`].
//! [`mitigation_registry`] lists every built-in setup, so callers — the
//! campaign registry, the CLI, and the engine-equivalence differential
//! harness — discover new defenses without code changes.  An optional
//! attacker co-runner replays an [`AttackKind`]'s
//! [`workloads::attack::AttackStream`] as one extra core's trace.

use cpu_sim::config::CpuConfig;
use cpu_sim::trace::{Trace, TraceOp};
use dram_sim::device::DramDeviceConfig;
use dram_sim::profile::DeviceProfile;
use memctrl::controller::ControllerConfig;
use memctrl::mapping::AddressMap;
use prac_core::config::{MitigationPolicy, PracConfig, PracLevel};
use prac_core::error::{ConfigError, Result};
use prac_core::security::CounterResetPolicy;
use prac_core::timing::DramTimingSummary;
use prac_core::tprac::{TpracConfig, TrefRate};
use serde::{Deserialize, Serialize};
use workloads::attack::AttackKind;
use workloads::generator::SyntheticWorkload;

use crate::event::EngineKind;
use crate::system::{SystemConfig, SystemResult, SystemSimulation};

/// Which mitigation configuration a run uses.
///
/// This is declarative *data* (serialisable, hashable into campaign cache
/// keys); the runtime behaviour lives in the
/// [`memctrl::mitigation::Mitigation`] each controller builds from the
/// resolved [`MitigationPolicy`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MitigationSetup {
    /// PRAC-enabled DRAM with mitigation disabled outright: the Alert signal
    /// is never asserted and no RFMs are issued.  This is the normalisation
    /// baseline of every performance figure.
    BaselineNoAbo,
    /// Rely solely on the ABO protocol (insecure against timing channels).
    AboOnly,
    /// ABO plus proactive Activation-Based RFMs (insecure against timing
    /// channels).
    AboPlusAcbRfm,
    /// The TPRAC defense.
    Tprac {
        /// Targeted-Refresh rate used to skip TB-RFMs.
        tref_rate: TrefRate,
        /// Whether per-row counters reset every tREFW.
        counter_reset: bool,
    },
    /// PRFM baseline: one RFM every `every_trefi` tREFI on a fixed,
    /// activity-independent cadence, with no per-row counters.
    Prfm {
        /// RFM period in tREFI intervals (>= 1).
        every_trefi: u32,
    },
    /// PARA-style probabilistic mitigation: each activation triggers an RFM
    /// with probability `1 / one_in`, from a stream seeded with `seed`.
    Para {
        /// Inverse issue probability per activation (>= 1).
        one_in: u32,
        /// Seed of the decision stream (part of the scenario's identity).
        seed: u64,
    },
}

/// A [`MitigationSetup`] resolved against a RowHammer threshold: everything
/// `build_system_config` needs to configure the device and controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedMitigation {
    /// The mitigation policy the controller's engine is built from.
    pub policy: MitigationPolicy,
    /// Whether per-row counters reset every tREFW.
    pub counter_reset: bool,
    /// Targeted-Refresh cadence for the device (`None` disables TREF).
    pub tref_every_n_refreshes: Option<u32>,
}

impl MitigationSetup {
    /// Label used in reports and plots.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            MitigationSetup::BaselineNoAbo => "Baseline (no ABO)".to_string(),
            MitigationSetup::AboOnly => "ABO-Only".to_string(),
            MitigationSetup::AboPlusAcbRfm => "ABO+ACB-RFM".to_string(),
            MitigationSetup::Tprac {
                tref_rate,
                counter_reset,
            } => {
                let reset = if *counter_reset { "" } else { "-NoReset" };
                match tref_rate {
                    TrefRate::None => format!("TPRAC{reset} w/o Targeted"),
                    TrefRate::EveryTrefi(n) => format!("TPRAC{reset} w/ 1 Targeted per {n} tREFI"),
                }
            }
            MitigationSetup::Prfm { every_trefi } => {
                format!("PRFM (1 RFM per {every_trefi} tREFI)")
            }
            MitigationSetup::Para { one_in, .. } => format!("PARA (p = 1/{one_in})"),
        }
    }

    /// Stable kebab-case slug used in scenario names and the CLI.  Must stay
    /// byte-identical for existing setups: the campaign golden snapshot pins
    /// scenario names built from it.
    #[must_use]
    pub fn slug(&self) -> String {
        match self {
            MitigationSetup::BaselineNoAbo => "baseline".into(),
            MitigationSetup::AboOnly => "abo-only".into(),
            MitigationSetup::AboPlusAcbRfm => "abo-acb-rfm".into(),
            MitigationSetup::Tprac {
                tref_rate,
                counter_reset,
            } => {
                let reset = if *counter_reset { "" } else { "-noreset" };
                match tref_rate {
                    TrefRate::None => format!("tprac{reset}"),
                    TrefRate::EveryTrefi(n) => format!("tprac{reset}-tref{n}"),
                }
            }
            MitigationSetup::Prfm { every_trefi } => format!("prfm{every_trefi}"),
            MitigationSetup::Para { one_in, .. } => format!("para{one_in}"),
        }
    }

    /// One-line description for listings.
    #[must_use]
    pub fn summary(&self) -> &'static str {
        match self {
            MitigationSetup::BaselineNoAbo => {
                "no mitigation at all: the normalisation baseline of every figure"
            }
            MitigationSetup::AboOnly => {
                "reactive Alert Back-Off only; leaks activity through RFM timing"
            }
            MitigationSetup::AboPlusAcbRfm => {
                "ABO plus proactive Bank-Activation RFMs; still activity dependent"
            }
            MitigationSetup::Tprac { .. } => {
                "activity-independent Timing-Based RFMs (the paper's defense)"
            }
            MitigationSetup::Prfm { .. } => {
                "periodic RFM every N tREFI; activity independent, no counters"
            }
            MitigationSetup::Para { .. } => {
                "probabilistic per-activation RFMs; seeded, activity dependent"
            }
        }
    }

    /// Whether the resolved policy's RFM timing depends on memory activity
    /// (and is therefore exploitable as a timing channel).
    #[must_use]
    pub fn is_activity_dependent(&self) -> bool {
        match self {
            MitigationSetup::BaselineNoAbo => false,
            MitigationSetup::AboOnly | MitigationSetup::AboPlusAcbRfm => true,
            MitigationSetup::Tprac { .. } | MitigationSetup::Prfm { .. } => false,
            MitigationSetup::Para { .. } => true,
        }
    }

    /// Resolves the declarative setup against a RowHammer threshold (the
    /// device's `NBO` is set equal to it).
    ///
    /// # Errors
    ///
    /// Propagates [`prac_core::error::ConfigError::NoSafeWindow`] when the TPRAC security
    /// solver cannot find a TB-Window protecting the threshold.  The failure
    /// is *not* silently papered over with a default window: a scenario that
    /// cannot be configured as specified must fail loudly rather than run a
    /// different configuration.
    pub fn resolve(
        &self,
        rowhammer_threshold: u32,
        timing: &DramTimingSummary,
    ) -> Result<ResolvedMitigation> {
        let resolved = match self {
            MitigationSetup::BaselineNoAbo => ResolvedMitigation {
                policy: MitigationPolicy::Disabled,
                counter_reset: true,
                tref_every_n_refreshes: None,
            },
            MitigationSetup::AboOnly => ResolvedMitigation {
                policy: MitigationPolicy::AboOnly,
                counter_reset: true,
                tref_every_n_refreshes: None,
            },
            MitigationSetup::AboPlusAcbRfm => ResolvedMitigation {
                policy: MitigationPolicy::AboPlusAcbRfm,
                counter_reset: true,
                tref_every_n_refreshes: None,
            },
            MitigationSetup::Tprac {
                tref_rate,
                counter_reset,
            } => {
                let reset_policy = if *counter_reset {
                    CounterResetPolicy::ResetEveryTrefw
                } else {
                    CounterResetPolicy::NoReset
                };
                let tprac =
                    TpracConfig::solve_for_threshold(rowhammer_threshold, timing, reset_policy)?
                        .with_tref_rate(*tref_rate);
                let tref_every_n_refreshes = match tref_rate {
                    TrefRate::None => None,
                    TrefRate::EveryTrefi(n) => Some(*n),
                };
                ResolvedMitigation {
                    policy: MitigationPolicy::Tprac(tprac),
                    counter_reset: *counter_reset,
                    tref_every_n_refreshes,
                }
            }
            MitigationSetup::Prfm { every_trefi } => ResolvedMitigation {
                policy: MitigationPolicy::PeriodicRfm {
                    every_trefi: *every_trefi,
                },
                counter_reset: true,
                tref_every_n_refreshes: None,
            },
            MitigationSetup::Para { one_in, seed } => ResolvedMitigation {
                policy: MitigationPolicy::Para {
                    one_in: *one_in,
                    seed: *seed,
                },
                counter_reset: true,
                tref_every_n_refreshes: None,
            },
        };
        Ok(resolved)
    }

    /// The four-way comparison used by Figure 10 and Figure 11.
    #[must_use]
    pub fn figure10_set() -> Vec<MitigationSetup> {
        vec![
            MitigationSetup::AboOnly,
            MitigationSetup::AboPlusAcbRfm,
            MitigationSetup::Tprac {
                tref_rate: TrefRate::None,
                counter_reset: true,
            },
        ]
    }
}

/// Seed of the registry's default PARA decision stream.  Fixed so that the
/// registered scenario is deterministic; sweeps that want other streams set
/// the `seed` field of [`MitigationSetup::Para`] explicitly.
pub const PARA_DEFAULT_SEED: u64 = 0x9A4A_5EED;

/// Every built-in mitigation setup, in presentation order: the paper's four
/// configurations (with the TPRAC ablations) followed by the beyond-paper
/// defenses.  The engine-equivalence differential suite iterates this
/// registry, so a setup added here is automatically raced tick-vs-event.
#[must_use]
pub fn mitigation_registry() -> Vec<MitigationSetup> {
    vec![
        MitigationSetup::BaselineNoAbo,
        MitigationSetup::AboOnly,
        MitigationSetup::AboPlusAcbRfm,
        MitigationSetup::Tprac {
            tref_rate: TrefRate::None,
            counter_reset: true,
        },
        MitigationSetup::Tprac {
            tref_rate: TrefRate::EveryTrefi(1),
            counter_reset: true,
        },
        MitigationSetup::Tprac {
            tref_rate: TrefRate::None,
            counter_reset: false,
        },
        MitigationSetup::Prfm { every_trefi: 2 },
        MitigationSetup::Para {
            one_in: 128,
            seed: PARA_DEFAULT_SEED,
        },
    ]
}

/// Full experiment configuration: mitigation setup + sweep parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// RowHammer threshold (`NRH`); `NBO` is set equal to it.
    pub rowhammer_threshold: u32,
    /// PRAC level (RFMs per Alert).
    pub prac_level: PracLevel,
    /// The mitigation configuration under test.
    pub setup: MitigationSetup,
    /// Instructions per core.
    pub instructions_per_core: u64,
    /// Number of cores (homogeneous workload copies).
    pub cores: u32,
    /// Number of memory channels (1 reproduces the paper's Table 3 system).
    pub channels: u32,
    /// Rank-count override for the DRAM organisation.  `0` keeps the
    /// organisation's own rank count (the paper's Table 3 system); any other
    /// value must be a power of two, enforced by
    /// [`ExperimentConfig::build_system_config`].
    pub ranks: u32,
    /// Named device timing profile.  [`DeviceProfile::JedecBaseline`] keeps
    /// the DDR5-8000B timing set bit-identical to the seed; the vendor
    /// profiles swap in their own tRFC/RFM cadence, rank-level knobs and
    /// on-die ECC model.
    pub profile: DeviceProfile,
    /// Optional adversarial co-runner: when set, one extra core runs the
    /// attack pattern's access stream (encoded through the configured
    /// address mapping) alongside the benign workload copies, so the run
    /// measures victim performance *and* security metrics
    /// ([`dram_sim::stats::DramStats::max_row_counter`]) under attack.
    /// `None` reproduces the paper's benign runs exactly.
    pub attack: Option<AttackKind>,
    /// Engine visiting the ticks.  Results are engine-independent (asserted
    /// by the differential suite), so this is an execution knob, not part of
    /// the experiment's identity.
    pub engine: EngineKind,
    /// Has no effect: channels always step sequentially.  Parallel channel
    /// stepping gave bit-identical results for every thread count and was
    /// removed as slower, so ignoring this value cannot change a result.
    /// The field stays only because `perfbench` names it in a struct
    /// literal; set it through [`ExperimentConfig::new`].
    #[serde(default = "default_sim_threads")]
    pub sim_threads: usize,
}

/// Serde default for [`ExperimentConfig::sim_threads`].
// Referenced by the `#[serde(default = "...")]` attribute above; the offline
// serde-derive shim does not expand it, so the compiler cannot see the use.
#[allow(dead_code)]
fn default_sim_threads() -> usize {
    1
}

impl ExperimentConfig {
    /// The paper's default operating point (NRH = 1024, PRAC-1, 4 cores,
    /// one channel) with a configurable instruction budget.
    #[must_use]
    pub fn new(setup: MitigationSetup, instructions_per_core: u64) -> Self {
        Self {
            rowhammer_threshold: 1024,
            prac_level: PracLevel::One,
            setup,
            instructions_per_core,
            cores: 4,
            channels: 1,
            ranks: 0,
            profile: DeviceProfile::JedecBaseline,
            attack: None,
            engine: EngineKind::default(),
            sim_threads: 1,
        }
    }

    /// Selects the engine that visits the ticks.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the RowHammer threshold.
    #[must_use]
    pub fn with_rowhammer_threshold(mut self, nrh: u32) -> Self {
        self.rowhammer_threshold = nrh;
        self
    }

    /// Sets the PRAC level.
    #[must_use]
    pub fn with_prac_level(mut self, level: PracLevel) -> Self {
        self.prac_level = level;
        self
    }

    /// Sets the core count.
    #[must_use]
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the memory-channel count.  Must be a power of two;
    /// [`ExperimentConfig::build_system_config`] reports a violation as a
    /// [`ConfigError::InvalidParameter`] rather than panicking deep inside
    /// the address mapping.
    #[must_use]
    pub fn with_channels(mut self, channels: u32) -> Self {
        self.channels = channels;
        self
    }

    /// Overrides the rank count of the DRAM organisation (`0` keeps the
    /// organisation's default).  Non-zero values must be a power of two;
    /// [`ExperimentConfig::build_system_config`] reports a violation as a
    /// [`ConfigError::InvalidParameter`] with the same wording as the
    /// channel-count check.
    #[must_use]
    pub fn with_ranks(mut self, ranks: u32) -> Self {
        self.ranks = ranks;
        self
    }

    /// Selects the named device timing profile.
    #[must_use]
    pub fn with_profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Adds (or clears) the adversarial co-runner.
    #[must_use]
    pub fn with_attack(mut self, attack: Option<AttackKind>) -> Self {
        self.attack = attack;
        self
    }

    /// Derives the DRAM-device and controller configurations for this
    /// experiment by resolving its mitigation setup.
    ///
    /// # Errors
    ///
    /// Propagates [`MitigationSetup::resolve`] failures (e.g. no safe
    /// TB-Window for the requested threshold) instead of silently running a
    /// different configuration, rejects channel or rank counts that are zero
    /// or not a power of two (the address mappings require power-of-two
    /// dimensions), and rejects a PRAC level the selected device profile
    /// does not implement.
    pub fn build_system_config(&self) -> Result<SystemConfig> {
        require_power_of_two("channels", self.channels)?;
        if self.ranks != 0 {
            require_power_of_two("ranks", self.ranks)?;
        }
        if !self.profile.supports_prac_level(self.prac_level) {
            return Err(ConfigError::InvalidParameter {
                name: "prac_level",
                reason: format!(
                    "device profile `{}` does not implement PRAC-{}",
                    self.profile.slug(),
                    self.prac_level.rfms_per_alert()
                ),
            });
        }
        let timing = self.profile.timing_summary();
        let resolved = self.setup.resolve(self.rowhammer_threshold, &timing)?;
        let prac = PracConfig::builder()
            .rowhammer_threshold(self.rowhammer_threshold)
            .back_off_threshold(self.rowhammer_threshold)
            .prac_level(self.prac_level)
            .counter_reset_every_trefw(resolved.counter_reset)
            .policy(resolved.policy)
            .try_build()?;
        let mut device = DramDeviceConfig {
            prac,
            tref_every_n_refreshes: resolved.tref_every_n_refreshes,
            ..DramDeviceConfig::paper_default()
        };
        device.timing = self.profile.timing();
        device.organization = device.organization.with_channels(self.channels);
        if self.ranks > 0 {
            device.organization = device.organization.with_ranks(self.ranks);
        }
        let mut cpu = CpuConfig::paper_default();
        // The adversarial co-runner occupies one extra core slot, so the
        // benign workload keeps its configured core count.
        cpu.cores = self.cores + u32::from(self.attack.is_some());
        Ok(SystemConfig {
            cpu,
            device,
            controller: ControllerConfig::default(),
            instructions_per_core: self.instructions_per_core,
            // The livelock cap budgets one channel's bandwidth (the worst
            // case).  Extra channels only retire instructions faster, so the
            // cap is deliberately independent of `self.channels`: scaling it
            // down would truncate legitimate runs that momentarily serialise
            // on one hot channel.
            max_ticks: self
                .instructions_per_core
                .saturating_mul(600)
                .max(20_000_000),
            engine: self.engine,
        })
    }
}

/// Shared validation for the power-of-two topology dimensions (`channels`,
/// `ranks`): the CLI surfaces this `reason` verbatim, so both knobs reject
/// bad values with identical wording that names the accepted range.
fn require_power_of_two(name: &'static str, value: u32) -> Result<()> {
    if value == 0 || !value.is_power_of_two() {
        return Err(ConfigError::InvalidParameter {
            name,
            reason: format!("must be a power of two (1, 2, 4, ...), got {value}"),
        });
    }
    Ok(())
}

/// Runs `workload` (one copy per core) under the given experiment
/// configuration and returns the raw result.
///
/// # Errors
///
/// Propagates configuration-resolution failures from
/// [`ExperimentConfig::build_system_config`].
pub fn run_workload(
    config: &ExperimentConfig,
    workload: &SyntheticWorkload,
    seed: u64,
) -> Result<SystemResult> {
    let system_config = config.build_system_config()?;
    let traces = workload_traces(config, &system_config, workload, seed);
    Ok(SystemSimulation::new(system_config, traces).run())
}

/// Builds the per-core traces of a run: one seeded copy of `workload` per
/// core, plus the adversarial co-runner's trace when the attack knob is set.
///
/// The traces depend only on the sweep parameters (cores, instruction
/// budget, channels, attack, seed) — never on the mitigation setup — so the
/// campaign runner generates them once per group of cells that differ only
/// in their setup and reuses them across every mitigation leg.
#[must_use]
pub fn workload_traces(
    config: &ExperimentConfig,
    system_config: &SystemConfig,
    workload: &SyntheticWorkload,
    seed: u64,
) -> Vec<Trace> {
    let mut traces: Vec<Trace> = (0..config.cores)
        .map(|core| {
            // Give each core its own slice of the address space so four
            // copies do not trivially share cache lines, mirroring the
            // paper's rate-mode methodology.
            let mut per_core = workload.clone();
            per_core.base_address = workload.base_address + u64::from(core) * (1 << 30);
            per_core.generate(config.instructions_per_core, seed ^ u64::from(core))
        })
        .collect();
    if let Some(attack) = &config.attack {
        traces.push(attacker_trace(attack, system_config, seed));
    }
    traces
}

/// Generates the adversarial co-runner's trace: flush+reload pairs
/// following the attack's [`workloads::attack::AttackStream`], encoded
/// through the system's address mapping.  The flush after every load
/// forces the next access to the same line back to DRAM — the
/// `clflush`-armed attacker of the RowHammer literature — so even
/// single-row patterns hammer through the cache hierarchy they share with
/// the benign cores.
///
/// Trace mode flattens the stream's burst timing
/// ([`workloads::attack::AttackAccess::not_before`] advances a local clock
/// but cannot stall the core model) — the determinism
/// contract guarantees the *addresses* are identical either way.  The
/// cycle-exact burst-honouring attacker model lives in
/// `pracleak::adversary` instead.
fn attacker_trace(attack: &AttackKind, system: &SystemConfig, seed: u64) -> Trace {
    let org = system.device.organization;
    let mapping = AddressMap::new(system.controller.mapping, org);
    let mut stream = attack.stream(&org, system.device.timing.t_refi, seed);
    let mut now = 0u64;
    let ops = (0..system.instructions_per_core.div_ceil(2))
        .flat_map(|_| {
            let access = stream.next_access(now);
            now = now.max(access.not_before) + 1;
            let address = mapping.encode(&access.address);
            [TraceOp::Load(address), TraceOp::Flush(address)]
        })
        .collect();
    Trace::new("attacker", ops)
}

/// Runs `workload` under `setup` and under the no-ABO baseline, returning
/// `(normalised performance, protected result, baseline result)`.
///
/// # Errors
///
/// Propagates configuration-resolution failures from either run.
pub fn run_workload_normalized(
    config: &ExperimentConfig,
    workload: &SyntheticWorkload,
    seed: u64,
) -> Result<(f64, SystemResult, SystemResult)> {
    let protected = run_workload(config, workload, seed)?;
    let baseline_config = ExperimentConfig {
        setup: MitigationSetup::BaselineNoAbo,
        ..config.clone()
    };
    let baseline = run_workload(&baseline_config, workload, seed)?;
    let normalized = if baseline.total_ipc() > 0.0 {
        protected.total_ipc() / baseline.total_ipc()
    } else {
        0.0
    };
    Ok((normalized, protected, baseline))
}

#[cfg(test)]
mod tests {
    use super::*;
    use prac_core::error::ConfigError;
    use workloads::generator::AccessPattern;

    const INSTR: u64 = 30_000;

    fn high_intensity_workload() -> SyntheticWorkload {
        SyntheticWorkload::new("h-test", 60, AccessPattern::RandomLarge).with_footprint(64 << 20)
    }

    fn low_intensity_workload() -> SyntheticWorkload {
        SyntheticWorkload::new("l-test", 1, AccessPattern::CacheResident)
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(MitigationSetup::AboOnly.label(), "ABO-Only");
        assert!(MitigationSetup::Tprac {
            tref_rate: TrefRate::EveryTrefi(2),
            counter_reset: true
        }
        .label()
        .contains("per 2 tREFI"));
        assert!(MitigationSetup::Tprac {
            tref_rate: TrefRate::None,
            counter_reset: false
        }
        .label()
        .contains("NoReset"));
        assert!(MitigationSetup::Prfm { every_trefi: 4 }
            .label()
            .contains("per 4 tREFI"));
        assert!(MitigationSetup::Para {
            one_in: 128,
            seed: 0
        }
        .label()
        .contains("1/128"));
    }

    #[test]
    fn registry_slugs_and_labels_are_unique() {
        let registry = mitigation_registry();
        assert!(registry.len() >= 8, "{} registered setups", registry.len());
        let mut slugs = std::collections::HashSet::new();
        for setup in &registry {
            assert!(
                slugs.insert(setup.slug()),
                "duplicate slug {}",
                setup.slug()
            );
            assert!(!setup.summary().is_empty());
        }
        // The registry starts with the normalisation baseline.
        assert_eq!(registry[0], MitigationSetup::BaselineNoAbo);
    }

    #[test]
    fn registry_setups_all_resolve_at_the_paper_threshold() {
        let timing = DramTimingSummary::ddr5_8000b();
        for setup in mitigation_registry() {
            let resolved = setup
                .resolve(1024, &timing)
                .unwrap_or_else(|e| panic!("{} failed to resolve: {e}", setup.slug()));
            assert_eq!(
                resolved.policy.is_activity_dependent(),
                setup.is_activity_dependent(),
                "{}: setup and policy disagree on activity dependence",
                setup.slug()
            );
        }
    }

    #[test]
    fn unsolvable_tprac_thresholds_propagate_an_error() {
        // A threshold far below anything a TB-Window can protect must fail
        // loudly instead of silently running a fallback window.
        let config = ExperimentConfig::new(
            MitigationSetup::Tprac {
                tref_rate: TrefRate::None,
                counter_reset: true,
            },
            INSTR,
        )
        .with_rowhammer_threshold(1);
        let err = config.build_system_config().unwrap_err();
        assert!(
            matches!(err, ConfigError::NoSafeWindow { .. }),
            "unexpected error {err:?}"
        );
        assert!(run_workload(&config, &low_intensity_workload(), 1).is_err());
    }

    #[test]
    fn invalid_channel_counts_are_rejected_as_config_errors() {
        for channels in [0u32, 3, 6] {
            let config =
                ExperimentConfig::new(MitigationSetup::AboOnly, INSTR).with_channels(channels);
            let err = config.build_system_config().unwrap_err();
            assert!(
                matches!(
                    err,
                    ConfigError::InvalidParameter {
                        name: "channels",
                        ..
                    }
                ),
                "channels = {channels}: unexpected error {err:?}"
            );
        }
        // Powers of two are accepted.
        for channels in [1u32, 2, 8] {
            let config =
                ExperimentConfig::new(MitigationSetup::AboOnly, INSTR).with_channels(channels);
            assert_eq!(config.build_system_config().unwrap().channels(), channels);
        }
    }

    #[test]
    fn invalid_rank_counts_are_rejected_with_the_channel_wording() {
        for ranks in [3u32, 6, 12] {
            let config = ExperimentConfig::new(MitigationSetup::AboOnly, INSTR).with_ranks(ranks);
            let err = config.build_system_config().unwrap_err();
            match err {
                ConfigError::InvalidParameter { name, reason } => {
                    assert_eq!(name, "ranks");
                    assert_eq!(
                        reason,
                        format!("must be a power of two (1, 2, 4, ...), got {ranks}")
                    );
                }
                other => panic!("ranks = {ranks}: unexpected error {other:?}"),
            }
        }
        // The channel check uses the identical wording (same helper).
        let err = ExperimentConfig::new(MitigationSetup::AboOnly, INSTR)
            .with_channels(3)
            .build_system_config()
            .unwrap_err();
        match err {
            ConfigError::InvalidParameter { name, reason } => {
                assert_eq!(name, "channels");
                assert_eq!(reason, "must be a power of two (1, 2, 4, ...), got 3");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // `0` means "no override" and powers of two are applied verbatim.
        let default_org = ExperimentConfig::new(MitigationSetup::AboOnly, INSTR)
            .build_system_config()
            .unwrap()
            .device
            .organization;
        for ranks in [1u32, 2, 8] {
            let config = ExperimentConfig::new(MitigationSetup::AboOnly, INSTR).with_ranks(ranks);
            let org = config.build_system_config().unwrap().device.organization;
            assert_eq!(org.ranks, ranks);
        }
        assert_eq!(
            ExperimentConfig::new(MitigationSetup::AboOnly, INSTR)
                .with_ranks(0)
                .build_system_config()
                .unwrap()
                .device
                .organization,
            default_org
        );
    }

    #[test]
    fn jedec_baseline_profile_is_the_identity() {
        // The default profile must not perturb the system configuration at
        // all: the 1-rank/default path stays bit-identical to the seed.
        let plain = ExperimentConfig::new(MitigationSetup::AboOnly, INSTR);
        let pinned = plain.clone().with_profile(DeviceProfile::JedecBaseline);
        assert_eq!(
            plain.build_system_config().unwrap(),
            pinned.build_system_config().unwrap()
        );
    }

    #[test]
    fn vendor_profiles_change_the_device_timing() {
        for profile in [DeviceProfile::VendorA, DeviceProfile::VendorB] {
            let config =
                ExperimentConfig::new(MitigationSetup::AboOnly, INSTR).with_profile(profile);
            let system = config.build_system_config().unwrap();
            assert_eq!(system.device.timing, profile.timing());
            assert_ne!(
                system.device.timing,
                dram_sim::timing::DramTimingParams::ddr5_8000b()
            );
        }
    }

    #[test]
    fn unsupported_prac_levels_are_rejected_per_profile() {
        // Vendor A tops out at PRAC-2.
        let config = ExperimentConfig::new(MitigationSetup::AboOnly, INSTR)
            .with_profile(DeviceProfile::VendorA)
            .with_prac_level(PracLevel::Four);
        let err = config.build_system_config().unwrap_err();
        match err {
            ConfigError::InvalidParameter { name, reason } => {
                assert_eq!(name, "prac_level");
                assert!(reason.contains("vendor-a"), "{reason}");
                assert!(reason.contains("PRAC-4"), "{reason}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Every registered profile accepts the paper's PRAC-1 default.
        for profile in DeviceProfile::registry() {
            let config =
                ExperimentConfig::new(MitigationSetup::AboOnly, INSTR).with_profile(profile);
            assert!(config.build_system_config().is_ok(), "{}", profile.slug());
        }
    }

    #[test]
    fn two_rank_runs_complete_and_stay_deterministic() {
        let config = ExperimentConfig::new(MitigationSetup::AboOnly, INSTR)
            .with_cores(2)
            .with_ranks(2);
        let a = run_workload(&config, &high_intensity_workload(), 9).unwrap();
        let b = run_workload(&config, &high_intensity_workload(), 9).unwrap();
        assert!(a.completed);
        assert_eq!(a, b, "2-rank runs must replay bit-for-bit");
    }

    #[test]
    fn baseline_config_never_issues_rfms() {
        let config = ExperimentConfig::new(MitigationSetup::BaselineNoAbo, INSTR).with_cores(2);
        let result = run_workload(&config, &high_intensity_workload(), 1).unwrap();
        assert!(result.completed);
        assert_eq!(result.controller_stats.total_rfms(), 0);
        assert_eq!(result.dram_stats.alerts_asserted, 0);
    }

    #[test]
    fn baseline_uses_the_explicit_disabled_policy() {
        let config = ExperimentConfig::new(MitigationSetup::BaselineNoAbo, INSTR);
        let system = config.build_system_config().unwrap();
        assert_eq!(system.device.prac.policy, MitigationPolicy::Disabled);
        // The Back-Off threshold is the real one — "no mitigation" comes
        // from the policy, not from an unreachable threshold.
        assert_eq!(system.device.prac.back_off_threshold, 1024);
    }

    #[test]
    fn tprac_issues_tb_rfms_and_slows_memory_bound_workloads() {
        let tprac = ExperimentConfig::new(
            MitigationSetup::Tprac {
                tref_rate: TrefRate::None,
                counter_reset: true,
            },
            INSTR,
        )
        .with_cores(2);
        let (normalized, protected, baseline) =
            run_workload_normalized(&tprac, &high_intensity_workload(), 2).unwrap();
        assert!(protected.completed && baseline.completed);
        assert!(
            protected.controller_stats.tb_rfms > 0,
            "{:?}",
            protected.controller_stats
        );
        assert_eq!(protected.controller_stats.abo_rfms, 0);
        // The traces are identical in both runs, so TPRAC can only add RFM
        // stalls; at this short budget second-order scheduling effects (an
        // RFM stall realigning accesses into row-buffer hits) still move the
        // ratio by a couple of percent, hence the tolerance above 1.0.
        assert!(
            normalized <= 1.02,
            "TPRAC cannot meaningfully outperform the unprotected baseline: {normalized}"
        );
        assert!(
            normalized > 0.80,
            "TPRAC slowdown should be moderate at NRH=1024: {normalized}"
        );
    }

    #[test]
    fn low_intensity_workloads_are_barely_affected_by_tprac() {
        let tprac = ExperimentConfig::new(
            MitigationSetup::Tprac {
                tref_rate: TrefRate::None,
                counter_reset: true,
            },
            INSTR,
        )
        .with_cores(2);
        let (normalized, _, _) =
            run_workload_normalized(&tprac, &low_intensity_workload(), 3).unwrap();
        assert!(
            normalized > 0.97,
            "cache-resident workloads should see <3% slowdown, got {normalized}"
        );
    }

    #[test]
    fn abo_only_has_negligible_overhead_for_benign_workloads() {
        let abo = ExperimentConfig::new(MitigationSetup::AboOnly, INSTR).with_cores(2);
        let (normalized, protected, _) =
            run_workload_normalized(&abo, &high_intensity_workload(), 4).unwrap();
        assert_eq!(
            protected.controller_stats.abo_rfms, 0,
            "benign workloads never hit NBO"
        );
        assert!(
            normalized > 0.98,
            "ABO-Only should be near-baseline: {normalized}"
        );
    }

    #[test]
    fn prfm_issues_periodic_rfms_and_costs_bandwidth() {
        let prfm =
            ExperimentConfig::new(MitigationSetup::Prfm { every_trefi: 1 }, INSTR).with_cores(2);
        let (normalized, protected, _) =
            run_workload_normalized(&prfm, &high_intensity_workload(), 5).unwrap();
        assert!(
            protected.controller_stats.periodic_rfms > 0,
            "{:?}",
            protected.controller_stats
        );
        assert_eq!(protected.controller_stats.abo_rfms, 0);
        assert!(
            normalized < 1.02,
            "an RFM every tREFI cannot be free: {normalized}"
        );
    }

    #[test]
    fn para_runs_are_deterministic_per_seed() {
        let config = |seed| {
            ExperimentConfig::new(MitigationSetup::Para { one_in: 32, seed }, INSTR).with_cores(2)
        };
        let a = run_workload(&config(7), &high_intensity_workload(), 6).unwrap();
        let b = run_workload(&config(7), &high_intensity_workload(), 6).unwrap();
        assert_eq!(a, b, "same PARA seed must replay bit-for-bit");
        assert!(a.controller_stats.para_rfms > 0, "{:?}", a.controller_stats);
        let c = run_workload(&config(8), &high_intensity_workload(), 6).unwrap();
        assert_ne!(
            a.rfm_log, c.rfm_log,
            "different PARA seeds must draw different streams"
        );
    }

    #[test]
    fn figure10_set_contains_three_configurations() {
        assert_eq!(MitigationSetup::figure10_set().len(), 3);
    }

    #[test]
    fn attack_knob_adds_one_attacker_core() {
        use workloads::attack::AttackKind;
        let benign = ExperimentConfig::new(MitigationSetup::AboOnly, INSTR).with_cores(2);
        let attacked = benign.clone().with_attack(Some(AttackKind::SingleSided));
        assert_eq!(benign.build_system_config().unwrap().cpu.cores, 2);
        assert_eq!(attacked.build_system_config().unwrap().cpu.cores, 3);
        let result = run_workload(&attacked, &low_intensity_workload(), 1).unwrap();
        assert!(result.completed, "{result:?}");
        assert_eq!(result.core_stats.len(), 3);
        // The attacker hammers one row stream through the caches; whatever
        // reaches DRAM is tracked by the peak-counter stat.
        assert!(result.dram_stats.activations > 0);
    }

    #[test]
    fn attacked_runs_are_deterministic_and_attack_free_runs_unchanged() {
        use workloads::attack::AttackKind;
        let attacked = ExperimentConfig::new(MitigationSetup::AboOnly, INSTR)
            .with_cores(2)
            .with_attack(Some(AttackKind::ManySided { sides: 4 }));
        let a = run_workload(&attacked, &low_intensity_workload(), 2).unwrap();
        let b = run_workload(&attacked, &low_intensity_workload(), 2).unwrap();
        assert_eq!(a, b, "attacked runs must replay bit-for-bit");
        // Clearing the knob restores the benign configuration entirely.
        let cleared = attacked.with_attack(None);
        let benign = ExperimentConfig::new(MitigationSetup::AboOnly, INSTR).with_cores(2);
        assert_eq!(
            run_workload(&cleared, &low_intensity_workload(), 2).unwrap(),
            run_workload(&benign, &low_intensity_workload(), 2).unwrap()
        );
    }
}
