//! Characterisation of the Alert Back-Off timing variation (Figure 3).
//!
//! An attacker thread times its own memory accesses (to a bank of its own)
//! while a victim thread on another core hammers a row in a *different* bank.
//! When the victim's activations reach the Back-Off threshold, the DRAM
//! asserts Alert and the controller issues 1, 2 or 4 RFM All-Bank commands —
//! each stalling the entire channel for 350 ns — so the attacker's concurrent
//! access observes a latency spike even though it targets an unrelated bank.

use prac_core::config::PracLevel;
use prac_core::timing::ticks_to_ns;
use serde::{Deserialize, Serialize};

use crate::agents::{MultiAgentRunner, SerializedAccessAgent};
use crate::latency::SpikeDetector;
use crate::setup::AttackSetup;

/// One attacker latency observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySample {
    /// Completion time of the access, in nanoseconds from the start of the
    /// experiment.
    pub time_ns: f64,
    /// Observed access latency in nanoseconds.
    pub latency_ns: f64,
}

/// Result of one characterisation run (one panel of Figure 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AboCharacterization {
    /// PRAC level used (RFMs per ABO); `None` for the no-ABO baseline panel.
    pub prac_level: Option<PracLevel>,
    /// Attacker latency timeline.
    pub samples: Vec<LatencySample>,
    /// Number of ABO events (Alert assertions) observed by the DRAM.
    pub abo_events: u64,
    /// Number of RFMs the controller issued in response.
    pub abo_rfms: u64,
    /// Mean latency of the attacker's spiked accesses, in nanoseconds
    /// (0 when no spike was observed).
    pub mean_spike_latency_ns: f64,
    /// Mean latency of the attacker's un-spiked accesses, in nanoseconds.
    pub mean_baseline_latency_ns: f64,
}

impl AboCharacterization {
    /// Number of attacker accesses classified as spikes.
    #[must_use]
    pub fn spike_count(&self) -> usize {
        let detector = SpikeDetector::default();
        self.samples
            .iter()
            .filter(|s| detector.is_spike(s.latency_ns))
            .count()
    }
}

/// Runs the Figure 3 characterisation.
///
/// * `nbo` — Back-Off threshold (the paper uses 256 for this figure),
/// * `prac_level` — `Some(level)` runs the victim hammer alongside the
///   attacker; `None` runs the attacker alone (the "No ABO" panel),
/// * `duration_ns` — length of the observation window (the paper plots 2 ms).
#[must_use]
pub fn run_characterization(
    nbo: u32,
    prac_level: Option<PracLevel>,
    duration_ns: f64,
) -> AboCharacterization {
    let setup = AttackSetup::new(nbo).with_prac_level(prac_level.unwrap_or(PracLevel::One));
    let controller = setup.build_controller();

    // Attacker: repeatedly accesses rows in bank-group 1; with the closed-page
    // policy the accesses rotate over a handful of rows so the attacker's own
    // counters stay far below NBO (no self-induced ABOs).
    let attacker_rows: Vec<u64> = (0..64u32)
        .map(|r| setup.row_address(&controller, 1, 1000 + r, 0))
        .collect();
    // Victim: hammers a single row in bank-group 0 (every serialized access is
    // an activation under the closed-page policy).
    let victim_row = setup.row_address(&controller, 0, 7, 0);

    let duration_ticks = (duration_ns * 4.0) as u64;
    let mut attacker = SerializedAccessAgent::new(attacker_rows, u64::MAX);
    let mut victim = SerializedAccessAgent::new(vec![victim_row], u64::MAX);

    let mut runner = MultiAgentRunner::new(controller);
    if prac_level.is_some() {
        runner.run(&mut [&mut attacker, &mut victim], duration_ticks);
    } else {
        runner.run(&mut [&mut attacker], duration_ticks);
    }

    let samples: Vec<LatencySample> = attacker
        .history
        .iter()
        .map(|a| LatencySample {
            time_ns: ticks_to_ns(a.completion_tick),
            latency_ns: a.latency_ns(),
        })
        .collect();

    let detector = SpikeDetector::default();
    let (mut spike_sum, mut spike_n, mut base_sum, mut base_n) = (0.0, 0usize, 0.0, 0usize);
    for s in &samples {
        if detector.is_spike(s.latency_ns) {
            spike_sum += s.latency_ns;
            spike_n += 1;
        } else {
            base_sum += s.latency_ns;
            base_n += 1;
        }
    }
    AboCharacterization {
        prac_level,
        abo_events: runner.controller().device().stats().alerts_asserted,
        abo_rfms: runner.controller().stats().abo_rfms,
        mean_spike_latency_ns: if spike_n > 0 {
            spike_sum / spike_n as f64
        } else {
            0.0
        },
        mean_baseline_latency_ns: if base_n > 0 {
            base_sum / base_n as f64
        } else {
            0.0
        },
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW_NS: f64 = 150_000.0;

    #[test]
    fn no_victim_means_no_spikes() {
        let result = run_characterization(64, None, WINDOW_NS);
        assert_eq!(result.abo_events, 0);
        assert_eq!(result.abo_rfms, 0);
        assert_eq!(result.spike_count(), 0);
        assert!(!result.samples.is_empty());
        assert!(result.mean_baseline_latency_ns > 0.0);
        assert!(result.mean_baseline_latency_ns < 300.0);
    }

    #[test]
    fn victim_hammering_produces_observable_spikes() {
        // Small NBO so several ABOs fit in a short window.
        let result = run_characterization(64, Some(PracLevel::One), WINDOW_NS);
        assert!(result.abo_events >= 1, "expected at least one ABO");
        assert!(result.abo_rfms >= 1);
        assert!(
            result.spike_count() >= 1,
            "attacker must observe the RFM stall"
        );
        assert!(result.mean_spike_latency_ns > 350.0);
    }

    #[test]
    fn spike_latency_grows_with_prac_level() {
        let one = run_characterization(64, Some(PracLevel::One), WINDOW_NS);
        let four = run_characterization(64, Some(PracLevel::Four), WINDOW_NS);
        assert!(one.spike_count() >= 1 && four.spike_count() >= 1);
        assert!(
            four.mean_spike_latency_ns > one.mean_spike_latency_ns + 300.0,
            "4 RFMs per ABO ({:.0} ns) should stall far longer than 1 ({:.0} ns)",
            four.mean_spike_latency_ns,
            one.mean_spike_latency_ns
        );
    }
}
