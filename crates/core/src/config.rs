//! PRAC protocol configuration.
//!
//! This module captures the knobs defined by the JEDEC DDR5 PRAC
//! specification (Table 1 of the paper) together with the system-level
//! choices that the paper evaluates: the RowHammer threshold, the
//! relationship between the Back-Off threshold `NBO` and the RowHammer
//! threshold `NRH`, the Bank-Activation threshold `BAT` used by proactive
//! Activation-Based RFMs, and which mitigation policy the memory controller
//! runs (ABO-Only, ABO+ACB-RFM, or TPRAC).

use serde::{Deserialize, Serialize};

use crate::error::{ConfigError, Result};
use crate::tprac::TpracConfig;

/// The PRAC level: number of RFM All-Bank commands the memory controller
/// issues per Alert Back-Off event (`Nmit` in the paper, Table 1).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub enum PracLevel {
    /// One RFM per Alert (PRAC-1).
    #[default]
    One,
    /// Two RFMs per Alert (PRAC-2).
    Two,
    /// Four RFMs per Alert (PRAC-4).
    Four,
}

impl PracLevel {
    /// Number of RFMab commands issued per Alert.
    #[must_use]
    pub fn rfms_per_alert(self) -> u32 {
        match self {
            PracLevel::One => 1,
            PracLevel::Two => 2,
            PracLevel::Four => 4,
        }
    }

    /// All PRAC levels defined by the specification, in ascending order.
    #[must_use]
    pub fn all() -> [PracLevel; 3] {
        [PracLevel::One, PracLevel::Two, PracLevel::Four]
    }
}

impl std::fmt::Display for PracLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PRAC-{}", self.rfms_per_alert())
    }
}

/// Which RFM-issuing policy the memory controller runs.
///
/// This enum is the *serialisable description* of a policy; its behaviour
/// lives in the memory controller's `memctrl::mitigation::Mitigation`, which
/// has one arm per proactive behaviour.  The first two variants are the
/// insecure baselines evaluated in the paper (Section 5, "Evaluated
/// Design"); [`MitigationPolicy::Tprac`] is the proposed defense; the
/// remaining variants are beyond-paper comparison points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum MitigationPolicy {
    /// Rely solely on the Alert Back-Off protocol: RFMs are only issued when
    /// the DRAM asserts Alert (a row reached `NBO`).  Vulnerable to
    /// PRACLeak timing channels.
    #[default]
    AboOnly,
    /// ABO plus proactive Activation-Based RFMs: an RFM is issued whenever a
    /// bank accumulates `BAT` activations, which (when `BAT` is configured
    /// correctly) eliminates ABO-RFMs but remains activity-dependent and
    /// therefore still leaks.
    AboPlusAcbRfm,
    /// The TPRAC defense: activity-independent Timing-Based RFMs issued every
    /// `TB-Window`, optionally co-designed with Targeted Refreshes.
    Tprac(TpracConfig),
    /// No mitigation at all: the Alert signal is never asserted and no RFMs
    /// are issued.  The normalisation baseline of the performance figures.
    Disabled,
    /// PRFM: one RFM every `every_trefi` tREFI on a fixed, activity-
    /// independent cadence, with no per-row counters.
    PeriodicRfm {
        /// RFM period in tREFI intervals (>= 1).
        every_trefi: u32,
    },
    /// PARA-style probabilistic mitigation: each row activation triggers an
    /// RFM with probability `1 / one_in`, drawn from a stream seeded with
    /// `seed` (deterministic per scenario).
    Para {
        /// Inverse issue probability per activation (>= 1).
        one_in: u32,
        /// Seed of the decision stream.
        seed: u64,
    },
}

impl MitigationPolicy {
    /// Returns `true` when this policy issues RFMs only as a function of the
    /// observed activation activity (and is therefore exploitable as a
    /// timing channel).  [`MitigationPolicy::Disabled`] issues nothing, so
    /// nothing observable depends on activity.
    #[must_use]
    pub fn is_activity_dependent(&self) -> bool {
        match self {
            MitigationPolicy::AboOnly
            | MitigationPolicy::AboPlusAcbRfm
            | MitigationPolicy::Para { .. } => true,
            MitigationPolicy::Tprac(_)
            | MitigationPolicy::Disabled
            | MitigationPolicy::PeriodicRfm { .. } => false,
        }
    }

    /// Whether the Alert Back-Off protocol is in force: the DRAM asserts
    /// Alert at `NBO` and the controller answers with RFMs.  `false` only
    /// for [`MitigationPolicy::Disabled`].
    #[must_use]
    pub fn uses_abo(&self) -> bool {
        !matches!(self, MitigationPolicy::Disabled)
    }

    /// A short human-readable label used by the bench harness.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            MitigationPolicy::AboOnly => "ABO-Only",
            MitigationPolicy::AboPlusAcbRfm => "ABO+ACB-RFM",
            MitigationPolicy::Tprac(_) => "TPRAC",
            MitigationPolicy::Disabled => "Disabled",
            MitigationPolicy::PeriodicRfm { .. } => "PRFM",
            MitigationPolicy::Para { .. } => "PARA",
        }
    }

    /// Validates the policy's own parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] for a zero PRFM period or a
    /// zero PARA inverse probability, and propagates
    /// [`TpracConfig::validate`] errors.
    pub fn validate(&self) -> Result<()> {
        match self {
            MitigationPolicy::Tprac(tprac) => tprac.validate(),
            MitigationPolicy::PeriodicRfm { every_trefi: 0 } => {
                Err(ConfigError::InvalidParameter {
                    name: "every_trefi",
                    reason: "the PRFM period must be at least one tREFI".to_string(),
                })
            }
            MitigationPolicy::Para { one_in: 0, .. } => Err(ConfigError::InvalidParameter {
                name: "one_in",
                reason: "the PARA inverse probability must be at least 1".to_string(),
            }),
            _ => Ok(()),
        }
    }
}

/// Complete PRAC configuration used by both the cycle-accurate model and the
/// analytical security/energy models.
///
/// The Alert Back-Off window between an Alert and the controller's first
/// RFM is a time, `tABOACT` (180 ns in DDR5-8000B), and lives with the DRAM
/// timing parameters (`DramTimingParams::t_abo_act`), not here: the
/// controller's ABO responder waits that long, so the activations an
/// attacker lands after the Alert are bounded by how many ACTs fit in the
/// window, not by an ACT count.  `ABODelay` is derived from the PRAC level
/// ([`PracConfig::abo_delay`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PracConfig {
    /// RowHammer threshold `NRH`: minimum activations to a row that can induce
    /// bit flips in its neighbours.
    pub rowhammer_threshold: u32,
    /// Back-Off threshold `NBO`: per-row activation count at which the DRAM
    /// asserts the Alert signal.
    pub back_off_threshold: u32,
    /// PRAC level (`Nmit`): RFMs issued per Alert.
    pub prac_level: PracLevel,
    /// Bank-Activation threshold `BAT` for proactive ACB-RFMs (Targeted RFM).
    /// Only consulted by [`MitigationPolicy::AboPlusAcbRfm`].
    pub bank_activation_threshold: u32,
    /// Whether per-row activation counters are reset at every refresh window
    /// (tREFW), as proposed by MOAT.  Affects the worst-case analysis and
    /// Figure 14.
    pub counter_reset_every_trefw: bool,
    /// The mitigation policy run by the memory controller.
    pub policy: MitigationPolicy,
}

impl PracConfig {
    /// Starts building a configuration.
    #[must_use]
    pub fn builder() -> PracConfigBuilder {
        PracConfigBuilder::default()
    }

    /// The default configuration evaluated in the paper: `NRH = 1024`,
    /// `NBO = NRH`, PRAC-1, counter reset enabled, ABO-Only policy.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::builder().build()
    }

    /// Validates internal consistency.  Returns an error naming the first
    /// violated constraint.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] when a threshold is zero or
    /// the Back-Off threshold exceeds the RowHammer threshold in a way that
    /// would leave the device unprotected.
    pub fn validate(&self) -> Result<()> {
        if self.rowhammer_threshold == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "rowhammer_threshold",
                reason: "must be non-zero".to_string(),
            });
        }
        if self.back_off_threshold == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "back_off_threshold",
                reason: "must be non-zero".to_string(),
            });
        }
        if self.back_off_threshold > self.rowhammer_threshold {
            return Err(ConfigError::InvalidParameter {
                name: "back_off_threshold",
                reason: format!(
                    "NBO ({}) must not exceed NRH ({}); otherwise rows can be hammered past \
                     the RowHammer threshold before any mitigation triggers",
                    self.back_off_threshold, self.rowhammer_threshold
                ),
            });
        }
        if self.bank_activation_threshold == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "bank_activation_threshold",
                reason: "must be non-zero".to_string(),
            });
        }
        self.policy.validate()
    }

    /// Number of RFMab commands issued for a single Alert.
    #[must_use]
    pub fn rfms_per_alert(&self) -> u32 {
        self.prac_level.rfms_per_alert()
    }

    /// `ABODelay`: activations after an RFM before a new Alert may be
    /// asserted.  The specification sets it equal to the PRAC level.
    #[must_use]
    pub fn abo_delay(&self) -> u32 {
        self.prac_level.rfms_per_alert()
    }
}

impl Default for PracConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Builder for [`PracConfig`] following the paper's defaults.
///
/// The default operating point is the one used throughout Section 6:
/// `NRH = 1024`, `NBO = NRH`, PRAC-1 (one RFM per Alert), `BAT = 75` (the
/// spec's "typically below NBO" example) and per-row counter reset every
/// tREFW.
#[derive(Debug, Clone)]
pub struct PracConfigBuilder {
    rowhammer_threshold: u32,
    back_off_threshold: Option<u32>,
    prac_level: PracLevel,
    bank_activation_threshold: Option<u32>,
    counter_reset_every_trefw: bool,
    policy: MitigationPolicy,
}

impl Default for PracConfigBuilder {
    fn default() -> Self {
        Self {
            rowhammer_threshold: 1024,
            back_off_threshold: None,
            prac_level: PracLevel::One,
            bank_activation_threshold: None,
            counter_reset_every_trefw: true,
            policy: MitigationPolicy::AboOnly,
        }
    }
}

impl PracConfigBuilder {
    /// Sets the RowHammer threshold `NRH`.
    #[must_use]
    pub fn rowhammer_threshold(mut self, nrh: u32) -> Self {
        self.rowhammer_threshold = nrh;
        self
    }

    /// Overrides the Back-Off threshold `NBO`.  Defaults to `NRH`.
    #[must_use]
    pub fn back_off_threshold(mut self, nbo: u32) -> Self {
        self.back_off_threshold = Some(nbo);
        self
    }

    /// Sets the PRAC level (RFMs per Alert).
    #[must_use]
    pub fn prac_level(mut self, level: PracLevel) -> Self {
        self.prac_level = level;
        self
    }

    /// Overrides the Bank-Activation threshold `BAT` for ACB-RFMs.
    /// Defaults to 75 activations as in the specification example.
    #[must_use]
    pub fn bank_activation_threshold(mut self, bat: u32) -> Self {
        self.bank_activation_threshold = Some(bat);
        self
    }

    /// Enables or disables per-row counter reset at every tREFW.
    #[must_use]
    pub fn counter_reset_every_trefw(mut self, reset: bool) -> Self {
        self.counter_reset_every_trefw = reset;
        self
    }

    /// Selects the mitigation policy run by the memory controller.
    #[must_use]
    pub fn policy(mut self, policy: MitigationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builds the configuration, panicking if it is internally inconsistent.
    ///
    /// # Panics
    ///
    /// Panics when the resulting configuration fails [`PracConfig::validate`];
    /// use [`PracConfigBuilder::try_build`] to handle the error instead.
    #[must_use]
    pub fn build(self) -> PracConfig {
        self.try_build().expect("invalid PRAC configuration")
    }

    /// Builds the configuration, validating it.
    ///
    /// # Errors
    ///
    /// Propagates the validation errors documented on [`PracConfig::validate`].
    pub fn try_build(self) -> Result<PracConfig> {
        let back_off_threshold = self.back_off_threshold.unwrap_or(self.rowhammer_threshold);
        let bank_activation_threshold = self
            .bank_activation_threshold
            .unwrap_or_else(|| 75.min(back_off_threshold.max(1)));
        let config = PracConfig {
            rowhammer_threshold: self.rowhammer_threshold,
            back_off_threshold,
            prac_level: self.prac_level,
            bank_activation_threshold,
            counter_reset_every_trefw: self.counter_reset_every_trefw,
            policy: self.policy,
        };
        config.validate()?;
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_section6_operating_point() {
        let cfg = PracConfig::paper_default();
        assert_eq!(cfg.rowhammer_threshold, 1024);
        assert_eq!(cfg.back_off_threshold, 1024);
        assert_eq!(cfg.prac_level, PracLevel::One);
        assert_eq!(cfg.abo_delay(), 1);
        assert!(cfg.counter_reset_every_trefw);
        assert!(cfg.policy.is_activity_dependent());
    }

    #[test]
    fn prac_levels_enumerate_spec_values() {
        let levels: Vec<u32> = PracLevel::all()
            .iter()
            .map(|l| l.rfms_per_alert())
            .collect();
        assert_eq!(levels, vec![1, 2, 4]);
    }

    #[test]
    fn abo_delay_tracks_prac_level() {
        for level in PracLevel::all() {
            let cfg = PracConfig::builder().prac_level(level).build();
            assert_eq!(cfg.abo_delay(), level.rfms_per_alert());
        }
    }

    #[test]
    fn nbo_defaults_to_nrh() {
        let cfg = PracConfig::builder().rowhammer_threshold(512).build();
        assert_eq!(cfg.back_off_threshold, 512);
    }

    #[test]
    fn bat_defaults_below_nbo() {
        let cfg = PracConfig::builder().rowhammer_threshold(4096).build();
        assert_eq!(cfg.bank_activation_threshold, 75);
        let small = PracConfig::builder().rowhammer_threshold(32).build();
        assert!(small.bank_activation_threshold <= 32);
    }

    #[test]
    fn zero_threshold_is_rejected() {
        let err = PracConfig::builder()
            .rowhammer_threshold(0)
            .try_build()
            .unwrap_err();
        assert!(
            matches!(err, ConfigError::InvalidParameter { name, .. } if name == "rowhammer_threshold")
        );
    }

    #[test]
    fn nbo_above_nrh_is_rejected() {
        let err = PracConfig::builder()
            .rowhammer_threshold(256)
            .back_off_threshold(512)
            .try_build()
            .unwrap_err();
        assert!(
            matches!(err, ConfigError::InvalidParameter { name, .. } if name == "back_off_threshold")
        );
    }

    #[test]
    fn tprac_policy_is_activity_independent() {
        let policy = MitigationPolicy::Tprac(TpracConfig::default());
        assert!(!policy.is_activity_dependent());
        assert_eq!(policy.label(), "TPRAC");
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(MitigationPolicy::AboOnly.label(), "ABO-Only");
        assert_eq!(MitigationPolicy::AboPlusAcbRfm.label(), "ABO+ACB-RFM");
        assert_eq!(MitigationPolicy::Disabled.label(), "Disabled");
        assert_eq!(
            MitigationPolicy::PeriodicRfm { every_trefi: 4 }.label(),
            "PRFM"
        );
        assert_eq!(
            MitigationPolicy::Para {
                one_in: 128,
                seed: 1
            }
            .label(),
            "PARA"
        );
    }

    #[test]
    fn activity_dependence_of_the_new_policies() {
        assert!(!MitigationPolicy::Disabled.is_activity_dependent());
        assert!(!MitigationPolicy::PeriodicRfm { every_trefi: 2 }.is_activity_dependent());
        assert!(MitigationPolicy::Para {
            one_in: 64,
            seed: 0
        }
        .is_activity_dependent());
    }

    #[test]
    fn only_disabled_turns_off_abo() {
        assert!(!MitigationPolicy::Disabled.uses_abo());
        for policy in [
            MitigationPolicy::AboOnly,
            MitigationPolicy::AboPlusAcbRfm,
            MitigationPolicy::Tprac(TpracConfig::default()),
            MitigationPolicy::PeriodicRfm { every_trefi: 1 },
            MitigationPolicy::Para {
                one_in: 64,
                seed: 0,
            },
        ] {
            assert!(policy.uses_abo(), "{} must keep ABO armed", policy.label());
        }
    }

    #[test]
    fn degenerate_policy_parameters_are_rejected() {
        let err = PracConfig::builder()
            .policy(MitigationPolicy::PeriodicRfm { every_trefi: 0 })
            .try_build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidParameter { name, .. } if name == "every_trefi"));
        let err = PracConfig::builder()
            .policy(MitigationPolicy::Para { one_in: 0, seed: 3 })
            .try_build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::InvalidParameter { name, .. } if name == "one_in"));
    }
}
