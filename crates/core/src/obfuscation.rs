//! Obfuscation-based alternative defense (Section 7.1 of the paper).
//!
//! Instead of eliminating Alert Back-Off RFMs like TPRAC, the controller (or
//! the DRAM) can inject *random* RFM-like delays so that an attacker observing
//! latency spikes cannot tell genuine mitigation activity from noise.  The
//! paper analyses this as a flexible security/performance trade-off that does
//! not fully close the channel: with injection probability `p` per tREFI an
//! attacker profiling RFM counts over a refresh window still observes
//! distributions whose tails (zero RFMs, or more RFMs than injection alone can
//! produce) leak information.
//!
//! This module provides the injection policy and a simple distribution-overlap
//! estimate of residual leakage used by the ablation bench.

use serde::{Deserialize, Serialize};

use crate::error::{ConfigError, Result};
use crate::timing::DramTimingSummary;

/// Configuration of the random-RFM obfuscation defense.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObfuscationConfig {
    /// Probability of injecting a random RFMab in any given tREFI interval.
    pub injection_probability_per_trefi: f64,
}

impl ObfuscationConfig {
    /// Creates a configuration with the given per-tREFI injection probability.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidParameter`] if the probability is not in
    /// `[0, 1]`.
    pub fn new(injection_probability_per_trefi: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&injection_probability_per_trefi) {
            return Err(ConfigError::InvalidParameter {
                name: "injection_probability_per_trefi",
                reason: format!(
                    "probability must be within [0, 1], got {injection_probability_per_trefi}"
                ),
            });
        }
        Ok(Self {
            injection_probability_per_trefi,
        })
    }

    /// The 50 %-per-tREFI example configuration discussed in the paper.
    #[must_use]
    pub fn paper_example() -> Self {
        Self {
            injection_probability_per_trefi: 0.5,
        }
    }

    /// Expected number of injected RFMs per refresh window (tREFW).
    #[must_use]
    pub fn expected_rfms_per_trefw(&self, timing: &DramTimingSummary) -> f64 {
        self.injection_probability_per_trefi * timing.trefi_per_trefw() as f64
    }

    /// Expected DRAM bandwidth consumed by injected RFMs.
    #[must_use]
    pub fn bandwidth_loss(&self, timing: &DramTimingSummary) -> f64 {
        self.injection_probability_per_trefi * timing.t_rfmab_ns / timing.t_refi_ns
    }

    /// A crude residual-leakage estimate in `[0, 1]`:
    /// the probability that an attacker observing the RFM count over one
    /// refresh window can *definitively* classify victim activity.
    ///
    /// With injection probability `p`, an idle window produces a
    /// Binomial(`n`, `p`) count; a window in which the victim caused `extra`
    /// genuine ABO-RFMs produces that count shifted by `extra`.  Definitive
    /// classification only happens in the non-overlapping tails, which this
    /// model approximates with a normal-distribution tail bound.  `p = 0`
    /// leaks fully (1.0); large `extra` relative to the binomial spread also
    /// pushes leakage towards 1.0.
    #[must_use]
    pub fn residual_leakage(&self, timing: &DramTimingSummary, extra_rfms: u64) -> f64 {
        let p = self.injection_probability_per_trefi;
        if extra_rfms == 0 {
            return 0.0;
        }
        if p <= f64::EPSILON {
            return 1.0;
        }
        let n = timing.trefi_per_trefw() as f64;
        let sigma = (n * p * (1.0 - p)).sqrt();
        if sigma <= f64::EPSILON {
            return 1.0;
        }
        // Separation between the two count distributions in standard
        // deviations; map through a logistic squash so the result is a
        // monotone leakage score in [0, 1).
        let separation = extra_rfms as f64 / (2.0 * sigma);
        separation / (1.0 + separation)
    }
}

impl Default for ObfuscationConfig {
    fn default() -> Self {
        Self::paper_example()
    }
}

/// Deterministic, seedable decision sequence for RFM injection.
///
/// The cycle-accurate model asks this policy once per tREFI whether to inject
/// a random RFM.  A small xorshift generator keeps the crate free of external
/// dependencies while remaining reproducible across runs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectionSequence {
    state: u64,
    threshold: u64,
}

impl InjectionSequence {
    /// Creates a sequence with the given seed and injection probability.
    #[must_use]
    pub fn new(config: ObfuscationConfig, seed: u64) -> Self {
        let threshold = (config.injection_probability_per_trefi * u64::MAX as f64).round() as u64;
        Self {
            state: seed.max(1),
            threshold,
        }
    }

    /// Returns `true` when the current tREFI interval should inject an RFM.
    pub fn next_decision(&mut self) -> bool {
        xorshift64_star(&mut self.state) < self.threshold
    }
}

/// One step of the xorshift64* generator: advances `state` and returns the
/// step's output.  The obfuscation defense's injection decisions and the
/// controller's PARA draws both use it; a zero state stays zero, so seeds
/// are clamped to at least 1.
#[must_use]
pub fn xorshift64_star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_bounds_are_enforced() {
        assert!(ObfuscationConfig::new(-0.1).is_err());
        assert!(ObfuscationConfig::new(1.1).is_err());
        assert!(ObfuscationConfig::new(0.0).is_ok());
        assert!(ObfuscationConfig::new(1.0).is_ok());
    }

    #[test]
    fn paper_example_injects_about_4096_rfms_per_trefw() {
        let t = DramTimingSummary::ddr5_8000b();
        let cfg = ObfuscationConfig::paper_example();
        let expected = cfg.expected_rfms_per_trefw(&t);
        assert!(
            (4000.0..4200.0).contains(&expected),
            "expected ~4096 injected RFMs per tREFW, got {expected}"
        );
    }

    #[test]
    fn bandwidth_loss_scales_with_probability() {
        let t = DramTimingSummary::ddr5_8000b();
        let half = ObfuscationConfig::new(0.5).unwrap().bandwidth_loss(&t);
        let full = ObfuscationConfig::new(1.0).unwrap().bandwidth_loss(&t);
        assert!((full / half - 2.0).abs() < 1e-9);
        // p = 1 injects one 350 ns RFM per 3.9 µs → ~9 % bandwidth.
        assert!((0.05..0.15).contains(&full));
    }

    #[test]
    fn leakage_is_zero_without_victim_activity_and_one_without_noise() {
        let t = DramTimingSummary::ddr5_8000b();
        let cfg = ObfuscationConfig::new(0.5).unwrap();
        assert_eq!(cfg.residual_leakage(&t, 0), 0.0);
        let silent = ObfuscationConfig::new(0.0).unwrap();
        assert_eq!(silent.residual_leakage(&t, 10), 1.0);
    }

    #[test]
    fn leakage_grows_with_victim_rfms_and_shrinks_with_noise() {
        let t = DramTimingSummary::ddr5_8000b();
        let cfg = ObfuscationConfig::new(0.5).unwrap();
        let small = cfg.residual_leakage(&t, 1);
        let large = cfg.residual_leakage(&t, 1000);
        assert!(small < large);
        let noisier = ObfuscationConfig::new(0.9).unwrap();
        // More noise at the same victim activity cannot increase leakage by a
        // large margin (variance is maximal at p = 0.5, so compare to p→1).
        assert!(noisier.residual_leakage(&t, 1000) <= large + 0.2);
        assert!(large < 1.0);
    }

    #[test]
    fn injection_sequence_matches_probability() {
        let cfg = ObfuscationConfig::new(0.25).unwrap();
        let mut seq = InjectionSequence::new(cfg, 42);
        let n = 100_000;
        let hits = (0..n).filter(|_| seq.next_decision()).count();
        let rate = hits as f64 / n as f64;
        assert!(
            (0.23..0.27).contains(&rate),
            "empirical injection rate {rate} should be close to 0.25"
        );
    }

    #[test]
    fn injection_sequence_is_deterministic_per_seed() {
        let cfg = ObfuscationConfig::paper_example();
        let mut a = InjectionSequence::new(cfg, 7);
        let mut b = InjectionSequence::new(cfg, 7);
        let series_a: Vec<bool> = (0..64).map(|_| a.next_decision()).collect();
        let series_b: Vec<bool> = (0..64).map(|_| b.next_decision()).collect();
        assert_eq!(series_a, series_b);
    }
}
