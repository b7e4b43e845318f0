//! The TPRAC (Timing-Safe PRAC) defense policy.
//!
//! TPRAC replaces activity-dependent RFMs with **Timing-Based RFMs
//! (TB-RFMs)** issued by the memory controller at a fixed interval
//! (`TB-Window`), entirely independent of memory activity.  The controller
//! needs only a single 24-bit register holding the interval; at each window
//! boundary it issues an RFM All-Bank command and the in-DRAM single-entry
//! mitigation queue mitigates the most activated row in every bank.
//!
//! Two refinements from the paper are modelled:
//!
//! * **Targeted-Refresh co-design** (Section 4.3): when the DRAM performs a
//!   Targeted Refresh (TREF) during a window, the pending TB-RFM for that
//!   window can be skipped because the TREF already mitigated the queue head.
//! * **Counter reset** (Section 6.6): per-row activation counters may be reset
//!   at every tREFW, which shrinks the attacker's feasible pool and allows a
//!   longer (cheaper) TB-Window.
//!
//! This module holds the defense's configuration and its analytical sizing;
//! the memory controller's periodic-deadline mitigation
//! (`memctrl::mitigation::Mitigation::Periodic`) issues the TB-RFMs.

use serde::{Deserialize, Serialize};

use crate::error::{ConfigError, Result};
use crate::security::{CounterResetPolicy, SecurityAnalysis};
use crate::timing::{ticks_to_ns, DramTimingSummary};

/// Rate at which the DRAM performs Targeted Refreshes (TREFs), expressed as
/// one TREF every `n` tREFI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum TrefRate {
    /// The DRAM performs no Targeted Refreshes.
    #[default]
    None,
    /// One TREF every `n` tREFI intervals (`n >= 1`).
    EveryTrefi(u32),
}

impl TrefRate {
    /// TREFs performed per tREFI (0.0 when disabled).
    #[must_use]
    pub fn trefs_per_trefi(self) -> f64 {
        match self {
            TrefRate::None => 0.0,
            TrefRate::EveryTrefi(n) => 1.0 / f64::from(n.max(1)),
        }
    }

    /// The sweep evaluated by Figure 12: none, 1/4, 1/3, 1/2 and 1/1 tREFI.
    #[must_use]
    pub fn figure12_sweep() -> Vec<TrefRate> {
        vec![
            TrefRate::None,
            TrefRate::EveryTrefi(4),
            TrefRate::EveryTrefi(3),
            TrefRate::EveryTrefi(2),
            TrefRate::EveryTrefi(1),
        ]
    }
}

impl std::fmt::Display for TrefRate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrefRate::None => write!(f, "no TREF"),
            TrefRate::EveryTrefi(n) => write!(f, "1 TREF per {n} tREFI"),
        }
    }
}

/// Static configuration of the TPRAC defense.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TpracConfig {
    /// TB-Window: interval between Timing-Based RFMs, in simulator ticks.
    pub tb_window_ticks: u64,
    /// The same interval expressed in tREFI units (kept for reporting).
    pub tb_window_trefi: f64,
    /// Rate of Targeted Refreshes available to skip TB-RFMs.
    pub tref_rate: TrefRate,
}

impl TpracConfig {
    /// Builds a TPRAC configuration from an explicit TB-Window in tREFI.
    #[must_use]
    pub fn with_window_trefi(tb_window_trefi: f64, timing: &DramTimingSummary) -> Self {
        let tb_window_ticks = ((tb_window_trefi * timing.t_refi_ns) * 4.0)
            .round()
            .max(1.0) as u64;
        Self {
            tb_window_ticks,
            tb_window_trefi,
            tref_rate: TrefRate::None,
        }
    }

    /// Solves the security analysis for the given Back-Off threshold and
    /// builds the corresponding configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError::NoSafeWindow`] when no TB-Window can protect
    /// the requested threshold.
    pub fn solve_for_threshold(
        nbo: u32,
        timing: &DramTimingSummary,
        reset: CounterResetPolicy,
    ) -> Result<Self> {
        let analysis = SecurityAnalysis::with_back_off_threshold(nbo, timing, reset);
        let solution = analysis.solve_tb_window()?;
        Ok(Self::with_window_trefi(solution.tb_window_trefi, timing))
    }

    /// Sets the Targeted-Refresh rate used to skip TB-RFMs.
    #[must_use]
    pub fn with_tref_rate(mut self, rate: TrefRate) -> Self {
        self.tref_rate = rate;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] for a zero-length window.
    pub fn validate(&self) -> Result<()> {
        if self.tb_window_ticks == 0 {
            return Err(ConfigError::InvalidParameter {
                name: "tb_window_ticks",
                reason: "TB-Window must be non-zero".to_string(),
            });
        }
        Ok(())
    }

    /// Upper bound on the DRAM bandwidth consumed by TB-RFMs
    /// (`tRFMab / TB-Window`), before accounting for skipped windows.
    #[must_use]
    pub fn bandwidth_loss_bound(&self, timing: &DramTimingSummary) -> f64 {
        timing.t_rfmab_ns / ticks_to_ns(self.tb_window_ticks)
    }

    /// Fraction of TB-RFMs that can be skipped thanks to Targeted Refreshes
    /// (Section 4.3): one TB-RFM is skipped for every TREF that falls in a
    /// window, capped at 100 %.
    #[must_use]
    pub fn tb_rfm_skip_fraction(&self) -> f64 {
        let trefs_per_window = self.tref_rate.trefs_per_trefi() * self.tb_window_trefi;
        trefs_per_window.min(1.0)
    }
}

impl Default for TpracConfig {
    fn default() -> Self {
        // The paper's headline operating point: NRH = 1024 needs one TB-RFM
        // every ~1.6 tREFI. Use the analytically-solved value when possible,
        // falling back to 1.6 tREFI if the solver configuration changes.
        let timing = DramTimingSummary::ddr5_8000b();
        TpracConfig::solve_for_threshold(1024, &timing, CounterResetPolicy::ResetEveryTrefw)
            .unwrap_or_else(|_| TpracConfig::with_window_trefi(1.6, &timing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> DramTimingSummary {
        DramTimingSummary::ddr5_8000b()
    }

    #[test]
    fn window_trefi_converts_to_ticks() {
        let cfg = TpracConfig::with_window_trefi(1.0, &timing());
        // 3900 ns at 4 ticks/ns.
        assert_eq!(cfg.tb_window_ticks, 15_600);
    }

    #[test]
    fn default_config_matches_headline_operating_point() {
        let cfg = TpracConfig::default();
        assert!(
            (1.0..2.5).contains(&cfg.tb_window_trefi),
            "default TB-Window should be ~1.6 tREFI, got {}",
            cfg.tb_window_trefi
        );
        // Bandwidth loss bound ≈ 350 ns / 6.2 µs ≈ 5.6 %.
        let loss = cfg.bandwidth_loss_bound(&timing());
        assert!((0.03..0.09).contains(&loss), "bandwidth loss bound {loss}");
    }

    #[test]
    fn solve_for_threshold_scales_window_with_nbo() {
        let t = timing();
        let w512 = TpracConfig::solve_for_threshold(512, &t, CounterResetPolicy::ResetEveryTrefw)
            .unwrap()
            .tb_window_trefi;
        let w2048 = TpracConfig::solve_for_threshold(2048, &t, CounterResetPolicy::ResetEveryTrefw)
            .unwrap()
            .tb_window_trefi;
        assert!(w512 < w2048);
    }

    #[test]
    fn zero_window_rejected() {
        let mut cfg = TpracConfig::with_window_trefi(1.0, &timing());
        cfg.tb_window_ticks = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn tref_rate_sweep_matches_figure12() {
        let sweep = TrefRate::figure12_sweep();
        assert_eq!(sweep.len(), 5);
        assert_eq!(sweep[0], TrefRate::None);
        assert_eq!(sweep[4], TrefRate::EveryTrefi(1));
        assert!((TrefRate::EveryTrefi(2).trefs_per_trefi() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn skip_fraction_saturates_at_one() {
        let t = timing();
        let cfg = TpracConfig::with_window_trefi(1.6, &t).with_tref_rate(TrefRate::EveryTrefi(1));
        assert!((cfg.tb_rfm_skip_fraction() - 1.0).abs() < 1e-12);
        let cfg = TpracConfig::with_window_trefi(1.6, &t).with_tref_rate(TrefRate::EveryTrefi(4));
        assert!((cfg.tb_rfm_skip_fraction() - 0.4).abs() < 1e-12);
        let cfg = TpracConfig::with_window_trefi(1.6, &t);
        assert_eq!(cfg.tb_rfm_skip_fraction(), 0.0);
    }

    #[test]
    fn display_of_tref_rate_is_readable() {
        assert_eq!(TrefRate::EveryTrefi(2).to_string(), "1 TREF per 2 tREFI");
        assert_eq!(TrefRate::None.to_string(), "no TREF");
    }
}
