//! The PRACLeak side-channel attack on AES T-tables (Section 3.3,
//! Figures 4, 5 and 9).
//!
//! Threat model: attacker and victim are different processes on different
//! cores sharing the DRAM module; the 16 cache lines of T-table T0 map to 16
//! distinct DRAM rows, and the attacker owns pages that co-reside in those
//! rows (bank-striped mapping).  The attacker repeatedly flushes the T-table
//! lines from the cache hierarchy, so every first-round T0 lookup becomes a
//! DRAM row activation the PRAC counters see.
//!
//! The attack proceeds in two phases per key byte:
//!
//! 1. **Victim phase** — the victim encrypts `n` chosen plaintexts (byte
//!    `p0` fixed, other bytes random).  The T0 line indexed by
//!    `x0 = p0 XOR k0` is touched every encryption, so its DRAM row
//!    accumulates far more activations than the other 15 rows.
//! 2. **Probe phase** — the attacker activates each of the 16 rows in a
//!    round-robin loop, timing every access.  The hottest row reaches the
//!    Back-Off threshold first; the resulting ABO-RFM stalls the channel and
//!    the attacker attributes the spike to the row it activated immediately
//!    before, recovering the top nibble of `k0`.
//!
//! With the TPRAC defense the periodic Timing-Based RFMs mitigate the hottest
//! row long before it reaches the threshold, no ABO ever fires, and the first
//! RFM the attacker observes is uncorrelated with the key.

use prac_core::config::{MitigationPolicy, PracLevel};
use prac_core::timing::ticks_to_ns;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::aes::{first_round_t0_lines, T_TABLE_CACHE_LINES};
use crate::agents::{MultiAgentRunner, SerializedAccessAgent};
use crate::latency::SpikeDetector;
use crate::setup::AttackSetup;

/// Configuration of one side-channel experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SideChannelExperiment {
    /// Back-Off threshold (256 in the paper's Figure 4).
    pub nbo: u32,
    /// Number of victim encryptions per key byte (200 in the paper).
    pub encryptions: u32,
    /// Mitigation policy: `AboOnly` reproduces the attack, `Tprac` the defense.
    pub policy: MitigationPolicy,
    /// RNG seed for the victim's random plaintext bytes.
    pub seed: u64,
}

impl SideChannelExperiment {
    /// The paper's attack configuration: NBO = 256, 200 encryptions, ABO-only.
    #[must_use]
    pub fn paper_attack() -> Self {
        Self {
            nbo: 256,
            encryptions: 200,
            policy: MitigationPolicy::AboOnly,
            seed: 0x5ec2e7,
        }
    }

    /// Same experiment with an arbitrary mitigation policy (e.g. TPRAC).
    #[must_use]
    pub fn with_policy(mut self, policy: MitigationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Runs the experiment for one value of secret key byte 0 and plaintext
    /// byte 0 fixed to `p0`.
    #[must_use]
    pub fn run_for_key_byte(&self, k0: u8, p0: u8) -> SideChannelOutcome {
        let setup = AttackSetup::new(self.nbo)
            .with_prac_level(PracLevel::One)
            .with_policy(self.policy.clone());
        let controller = setup.build_controller();

        // The 16 cache lines of T0 map to rows 0..16 of bank-group 0; the
        // victim and the attacker use different columns of those rows
        // (different physical pages sharing the row).
        let victim_row_addr: Vec<u64> = (0..T_TABLE_CACHE_LINES as u32)
            .map(|row| setup.row_address(&controller, 0, row, 0))
            .collect();
        let attacker_row_addr: Vec<u64> = (0..T_TABLE_CACHE_LINES as u32)
            .map(|row| setup.row_address(&controller, 0, row, 8))
            .collect();

        // --- Victim phase -------------------------------------------------
        let victim_accesses: Vec<u64> = self
            .victim_lines(k0, p0)
            .into_iter()
            .map(|line| victim_row_addr[line])
            .collect();
        let victim_access_count = victim_accesses.len() as u64;
        let mut victim = SerializedAccessAgent::new(victim_accesses, victim_access_count);

        let mut runner = MultiAgentRunner::new(controller);
        runner.run(&mut [&mut victim], victim_access_count * 4_000 + 100_000);

        // Record the per-row activation counts accumulated by the victim.
        let victim_activations = self.row_counters(&runner, &victim_row_addr);

        // --- Probe phase ---------------------------------------------------
        // The attacker activates rows round-robin with a think time larger
        // than tABOACT so the spike is observed on the access immediately
        // after the one that triggered the Alert.
        let mut attacker = SerializedAccessAgent::new(
            attacker_row_addr.clone(),
            u64::from(self.nbo) * T_TABLE_CACHE_LINES as u64,
        )
        .with_think_time(800);
        runner.run(
            &mut [&mut attacker],
            u64::from(self.nbo) * T_TABLE_CACHE_LINES as u64 * 2_000 + 200_000,
        );

        let detector = SpikeDetector::default();
        let latencies = attacker.latencies_ns();
        let first_spike = detector.first_spike(&latencies);
        let leaked_row = first_spike.map(|idx| {
            // Attribute the spike to the access issued immediately before the
            // stalled one (the one whose activation crossed the threshold).
            let trigger = idx.saturating_sub(1);
            trigger % T_TABLE_CACHE_LINES
        });
        let attacker_activations_to_leaked_row = match (first_spike, leaked_row) {
            (Some(idx), Some(row)) => attacker
                .history
                .iter()
                .take(idx)
                .filter(|a| a.address == attacker_row_addr[row])
                .count() as u32,
            _ => 0,
        };

        let rfm_log = runner.controller().rfm_log().to_vec();
        SideChannelOutcome {
            k0,
            p0,
            true_nibble: k0 >> 4,
            leaked_row,
            attacker_activations_to_leaked_row,
            victim_activations,
            attacker_latencies_ns: latencies,
            abo_rfms: runner.controller().stats().abo_rfms,
            tb_rfms: runner.controller().stats().tb_rfms,
            rfm_times_ns: rfm_log.iter().map(|&(t, _)| ticks_to_ns(t)).collect(),
        }
    }

    /// The victim's T0 cache-line sequence for key byte `k0` (all other key
    /// bytes zero): for every encryption, the four first-round T0 lookups
    /// with the attacker-chosen `p0` and random p4/p8/p12.  The attacker
    /// flushes the lines, so each lookup reaches DRAM as an access to the
    /// row of that line.
    #[must_use]
    pub fn victim_lines(&self, k0: u8, p0: u8) -> Vec<usize> {
        let mut key = [0u8; 16];
        key[0] = k0;
        let mut rng = StdRng::seed_from_u64(self.seed ^ u64::from(k0));
        let mut lines = Vec::with_capacity(self.encryptions as usize * 4);
        for _ in 0..self.encryptions {
            let mut plaintext = [0u8; 16];
            rng.fill(&mut plaintext);
            plaintext[0] = p0;
            lines.extend(first_round_t0_lines(&key, &plaintext));
        }
        lines
    }

    fn row_counters(&self, runner: &MultiAgentRunner, row_addresses: &[u64]) -> Vec<u64> {
        row_addresses
            .iter()
            .map(|&addr| {
                let decoded = runner.controller().decode_address(addr);
                let org = runner.controller().device().config().organization;
                u64::from(
                    runner
                        .controller()
                        .device()
                        .bank(decoded.flat_bank(&org))
                        .counter(decoded.row),
                )
            })
            .collect()
    }
}

/// Result of one side-channel run for a single key byte value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SideChannelOutcome {
    /// The true secret key byte.
    pub k0: u8,
    /// The chosen plaintext byte.
    pub p0: u8,
    /// The key nibble the attack is trying to recover (`k0 >> 4` when
    /// `p0 = 0`).
    pub true_nibble: u8,
    /// The DRAM row (T0 cache-line index) the attacker attributes the first
    /// RFM to; `None` when no spike was observed.
    pub leaked_row: Option<usize>,
    /// Attacker activations to the leaked row before the spike
    /// (Figure 5(b)): victim + attacker activations sum to `NBO`.
    pub attacker_activations_to_leaked_row: u32,
    /// Victim-phase activation counts for the 16 T0 rows (Figure 5(a)).
    pub victim_activations: Vec<u64>,
    /// Attacker probe-phase latencies in nanoseconds (Figure 4, top panel).
    pub attacker_latencies_ns: Vec<f64>,
    /// ABO-triggered RFMs observed during the run.
    pub abo_rfms: u64,
    /// TPRAC Timing-Based RFMs observed during the run.
    pub tb_rfms: u64,
    /// Times (ns) of all RFMs issued during the run (Figure 4, middle panel).
    pub rfm_times_ns: Vec<f64>,
}

impl SideChannelOutcome {
    /// Whether the attack recovered the correct key nibble
    /// (leaked row index == top nibble of `p0 XOR k0`).
    #[must_use]
    pub fn nibble_recovered(&self) -> bool {
        self.leaked_row == Some(usize::from((self.p0 ^ self.k0) >> 4))
    }

    /// The row the victim activated most during its phase.
    #[must_use]
    pub fn hottest_victim_row(&self) -> Option<usize> {
        self.victim_activations
            .iter()
            .enumerate()
            .max_by_key(|(_, &count)| count)
            .map(|(row, _)| row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prac_core::security::CounterResetPolicy;
    use prac_core::timing::DramTimingSummary;
    use prac_core::tprac::TpracConfig;

    fn quick_attack() -> SideChannelExperiment {
        SideChannelExperiment {
            nbo: 128,
            encryptions: 100,
            policy: MitigationPolicy::AboOnly,
            seed: 42,
        }
    }

    #[test]
    fn victim_phase_makes_the_key_row_hottest() {
        let outcome = quick_attack().run_for_key_byte(0x70, 0);
        assert_eq!(outcome.hottest_victim_row(), Some(7));
        // The hot row sees roughly one access per encryption plus background.
        assert!(outcome.victim_activations[7] >= 100);
        let cold_max = outcome
            .victim_activations
            .iter()
            .enumerate()
            .filter(|(r, _)| *r != 7)
            .map(|(_, &c)| c)
            .max()
            .unwrap();
        assert!(outcome.victim_activations[7] > cold_max * 2);
    }

    #[test]
    fn attack_recovers_key_nibble_without_defense() {
        for k0 in [0x00u8, 0x30, 0xA0, 0xF0] {
            let outcome = quick_attack().run_for_key_byte(k0, 0);
            assert!(
                outcome.abo_rfms >= 1,
                "attack needs an ABO-RFM (k0={k0:#x})"
            );
            assert!(
                outcome.nibble_recovered(),
                "expected nibble {:#x}, leaked row {:?}",
                k0 >> 4,
                outcome.leaked_row
            );
        }
    }

    #[test]
    fn victim_and_attacker_activations_sum_to_nbo() {
        let exp = quick_attack();
        let outcome = exp.run_for_key_byte(0x50, 0);
        assert!(outcome.nibble_recovered());
        let row = outcome.leaked_row.unwrap();
        let total =
            outcome.victim_activations[row] + u64::from(outcome.attacker_activations_to_leaked_row);
        // The triggering activation itself may or may not be included in the
        // attacker count depending on attribution, so allow ±2.
        assert!(
            (u64::from(exp.nbo) - 2..=u64::from(exp.nbo) + 2).contains(&total),
            "victim ({}) + attacker ({}) should equal NBO ({})",
            outcome.victim_activations[row],
            outcome.attacker_activations_to_leaked_row,
            exp.nbo
        );
    }

    #[test]
    fn chosen_plaintext_byte_shifts_the_leaked_row() {
        // With p0 != 0 the hot line is (p0 XOR k0) >> 4.
        let outcome = quick_attack().run_for_key_byte(0x20, 0x70);
        assert_eq!(outcome.hottest_victim_row(), Some(0x5));
        assert!(outcome.nibble_recovered());
    }

    #[test]
    fn tprac_defense_eliminates_abo_rfms_and_hides_the_key() {
        let timing = DramTimingSummary::ddr5_8000b();
        let tprac =
            TpracConfig::solve_for_threshold(128, &timing, CounterResetPolicy::ResetEveryTrefw)
                .expect("a safe TB-Window exists for NBO=128");
        let exp = quick_attack().with_policy(MitigationPolicy::Tprac(tprac));
        let mut correct = 0;
        for k0 in [0x10u8, 0x60, 0xC0] {
            let outcome = exp.run_for_key_byte(k0, 0);
            assert_eq!(outcome.abo_rfms, 0, "TPRAC must prevent every ABO-RFM");
            assert!(outcome.tb_rfms > 0, "TB-RFMs must still be issued");
            if outcome.nibble_recovered() {
                correct += 1;
            }
        }
        assert!(
            correct < 3,
            "with TPRAC the attack must not reliably recover key nibbles"
        );
    }
}
