//! PRACLeak covert channels (Section 3.2, Table 2).
//!
//! Two channels between a trojan (sender) and a spy (receiver) sharing a
//! DRAM module:
//!
//! * **Activity-based** — sender and receiver use *different banks*.  To send
//!   a '1' the sender activates one of its rows `NBO` times within the bit
//!   window, triggering an Alert Back-Off whose RFM stalls the whole channel;
//!   to send a '0' it stays idle.  The receiver times its own accesses and
//!   decodes the bit from the presence or absence of a latency spike in the
//!   window.  One bit per window.
//! * **Activation-count-based** — sender and receiver share a *DRAM row*
//!   (different pages mapped to the same row under bank-striped mapping).
//!   The sender encodes a value `k < NBO` by activating the shared row `k`
//!   times; the receiver then activates the same row until it observes the
//!   ABO-induced spike after `NBO − k` of its own activations, recovering
//!   `k` exactly — `log2(NBO)` bits per window.

use prac_core::config::PracLevel;
use prac_core::timing::ticks_to_ns;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::agents::{
    AgentAction, MemoryAgent, MultiAgentRunner, RecordedAccess, SerializedAccessAgent,
};
use crate::latency::SpikeDetector;
use crate::setup::AttackSetup;

/// Which covert channel variant to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CovertChannelKind {
    /// Sender and receiver in different banks; 1 bit per window.
    ActivityBased,
    /// Sender and receiver share a DRAM row; `log2(NBO)` bits per window.
    ActivationCountBased,
}

/// Result of a covert-channel run (one row of Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CovertChannelResult {
    /// Channel variant.
    pub kind: CovertChannelKind,
    /// Back-Off threshold used.
    pub nbo: u32,
    /// Transmission period (time per symbol) in microseconds.
    pub transmission_period_us: f64,
    /// Achieved bitrate in kilobits per second.
    pub bitrate_kbps: f64,
    /// Number of payload bits transmitted.
    pub bits_transmitted: u64,
    /// Number of bits decoded incorrectly.
    pub bit_errors: u64,
}

impl CovertChannelResult {
    /// Bit error rate of the run.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        if self.bits_transmitted == 0 {
            0.0
        } else {
            self.bit_errors as f64 / self.bits_transmitted as f64
        }
    }
}

/// Sender for the activity-based channel: for each bit, either hammers its
/// row `NBO` times (bit = 1) or idles until the end of the window (bit = 0).
#[derive(Debug)]
pub struct ActivitySender {
    row_address: u64,
    bits: Vec<bool>,
    nbo: u32,
    window_ticks: u64,
    current_bit: usize,
    accesses_left_in_bit: u32,
}

impl ActivitySender {
    /// Creates a sender transmitting `bits`, one per `window_ticks`-long
    /// window starting at tick 0, by hammering `row_address` `nbo` times
    /// in each '1' window.
    #[must_use]
    pub fn new(row_address: u64, bits: Vec<bool>, nbo: u32, window_ticks: u64) -> Self {
        let first_active = bits.first().copied().unwrap_or(false);
        Self {
            row_address,
            bits,
            nbo,
            window_ticks,
            current_bit: 0,
            accesses_left_in_bit: if first_active { nbo } else { 0 },
        }
    }

    fn window_end(&self) -> u64 {
        (self.current_bit as u64 + 1) * self.window_ticks
    }
}

impl MemoryAgent for ActivitySender {
    fn next_action(&mut self, now: u64) -> AgentAction {
        if self.current_bit >= self.bits.len() {
            return AgentAction::Done;
        }
        if now >= self.window_end() {
            // Advance to the next bit window.
            self.current_bit += 1;
            if self.current_bit >= self.bits.len() {
                return AgentAction::Done;
            }
            self.accesses_left_in_bit = if self.bits[self.current_bit] {
                self.nbo
            } else {
                0
            };
        }
        if self.accesses_left_in_bit > 0 {
            self.accesses_left_in_bit -= 1;
            AgentAction::Access(self.row_address)
        } else {
            AgentAction::Idle
        }
    }

    fn on_completion(&mut self, _access: RecordedAccess) {}

    fn is_done(&self) -> bool {
        self.current_bit >= self.bits.len()
    }

    /// A silent bit window has nothing to do until the window ends.
    fn wake_at(&self, now: u64) -> u64 {
        if self.accesses_left_in_bit > 0 {
            now + 1
        } else {
            self.window_end().max(now + 1)
        }
    }
}

/// Runs the selected covert channel, transmitting `payload_bits` random bits
/// (or symbols) and measuring period, bitrate and error rate.
#[must_use]
pub fn run_covert_channel(
    kind: CovertChannelKind,
    nbo: u32,
    payload_symbols: usize,
    seed: u64,
) -> CovertChannelResult {
    match kind {
        CovertChannelKind::ActivityBased => run_activity_based(nbo, payload_symbols, seed),
        CovertChannelKind::ActivationCountBased => {
            run_activation_count_based(nbo, payload_symbols, seed)
        }
    }
}

/// The bit window of the activity-based channel at Back-Off threshold
/// `nbo`, in ticks: `nbo` serialized activations (each ~ tRC + read
/// latency at the controller) plus the RFM stall, with ~30% slack for
/// queueing.
#[must_use]
pub fn activity_window_ticks(nbo: u32) -> u64 {
    let per_access_ticks = 4 * (52 + 36 + 20);
    (u64::from(nbo) * per_access_ticks * 13) / 10 + 1_400
}

fn run_activity_based(nbo: u32, payload_bits: usize, seed: u64) -> CovertChannelResult {
    let setup = AttackSetup::new(nbo).with_prac_level(PracLevel::One);
    let controller = setup.build_controller();

    let mut rng = StdRng::seed_from_u64(seed);
    let bits: Vec<bool> = (0..payload_bits).map(|_| rng.gen_bool(0.5)).collect();
    let window_ticks = activity_window_ticks(nbo);

    // Sender row in bank-group 0; receiver rotates over rows in bank-group 2.
    let sender_row = setup.row_address(&controller, 0, 99, 0);
    let receiver_rows: Vec<u64> = (0..64u32)
        .map(|r| setup.row_address(&controller, 2, 5_000 + r, 0))
        .collect();

    let mut sender = ActivitySender::new(sender_row, bits.clone(), nbo, window_ticks);
    let mut receiver = SerializedAccessAgent::new(receiver_rows, u64::MAX);
    let mut runner = MultiAgentRunner::new(controller);
    let total_ticks = window_ticks * bits.len() as u64 + window_ticks;
    runner.run(&mut [&mut sender, &mut receiver], total_ticks);

    // Decode: a bit window containing at least one latency spike is a '1'.
    let detector = SpikeDetector::default();
    let mut decoded = vec![false; bits.len()];
    for access in &receiver.history {
        if detector.is_spike(access.latency_ns()) {
            let window = (access.completion_tick / window_ticks) as usize;
            if window < decoded.len() {
                decoded[window] = true;
            }
        }
    }
    let bit_errors = bits
        .iter()
        .zip(&decoded)
        .filter(|(sent, got)| sent != got)
        .count() as u64;

    let period_us = ticks_to_ns(window_ticks) / 1000.0;
    CovertChannelResult {
        kind: CovertChannelKind::ActivityBased,
        nbo,
        transmission_period_us: period_us,
        bitrate_kbps: 1.0 / period_us * 1000.0,
        bits_transmitted: bits.len() as u64,
        bit_errors,
    }
}

fn run_activation_count_based(nbo: u32, payload_symbols: usize, seed: u64) -> CovertChannelResult {
    let setup = AttackSetup::new(nbo).with_prac_level(PracLevel::One);
    let bits_per_symbol = 32 - (nbo - 1).leading_zeros().min(31);

    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let symbols: Vec<u32> = (0..payload_symbols)
        .map(|_| rng.gen_range(0..nbo))
        .collect();

    let mut total_period_ticks = 0u64;
    let mut errors_in_bits = 0u64;
    // Think time between receiver probes, chosen so that the probe following
    // the threshold-crossing one is always issued *inside* the ABO-RFM's
    // blocking window (which opens tABOACT = 180 ns after the Alert): the
    // spike is then observed on probe `t + 1` with a latency well above the
    // detector threshold, and the decode recovers the sender's count exactly.
    let receiver_think_ticks = 800u64;

    // Each symbol is transmitted in its own sub-run: the RFM that terminates
    // the receiver's probe also resets the shared row's counter, so symbols
    // are independent. Running them back-to-back in one simulation or in
    // separate simulations is equivalent; separate runs keep the decoding
    // logic obvious.
    for &k in &symbols {
        let controller = setup.build_controller();
        let shared_row_sender = setup.row_address(&controller, 0, 333, 0);
        let shared_row_receiver = setup.row_address(&controller, 0, 333, 8);

        // Phase 1: the sender activates the shared row k times.
        let mut sender = SerializedAccessAgent::new(vec![shared_row_sender], u64::from(k));
        let mut runner = MultiAgentRunner::new(controller);
        let start = runner.now();
        runner.run(&mut [&mut sender], 4 * u64::from(nbo) * 600 + 10_000);

        // Phase 2: the receiver activates the same row until the ABO spike.
        let mut receiver =
            SerializedAccessAgent::new(vec![shared_row_receiver], u64::from(nbo) + 4)
                .with_think_time(receiver_think_ticks);
        runner.run(
            &mut [&mut receiver],
            (4 * 600 + receiver_think_ticks) * u64::from(nbo) + 100_000,
        );
        let end = runner.now();
        total_period_ticks += end - start;

        // Decode: the spike is observed on the probe right after the one that
        // crossed the threshold, so the number of probes completed *before*
        // the spiked one equals NBO - k.
        let detector = SpikeDetector::default();
        let latencies = receiver.latencies_ns();
        let decoded = match detector.first_spike(&latencies) {
            Some(first_spike) => nbo.saturating_sub(first_spike.min(usize::from(u16::MAX)) as u32),
            None => 0,
        };
        if decoded != k {
            errors_in_bits += u64::from((decoded ^ k).count_ones());
        }
    }

    let symbols_count = symbols.len().max(1) as u64;
    let period_us = ticks_to_ns(total_period_ticks) / 1000.0 / symbols_count as f64;
    let bits_transmitted = symbols_count * u64::from(bits_per_symbol);
    CovertChannelResult {
        kind: CovertChannelKind::ActivationCountBased,
        nbo,
        transmission_period_us: period_us,
        bitrate_kbps: f64::from(bits_per_symbol) / period_us * 1000.0,
        bits_transmitted,
        bit_errors: errors_in_bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn activity_based_channel_decodes_random_bits() {
        let result = run_covert_channel(CovertChannelKind::ActivityBased, 64, 12, 3);
        assert_eq!(result.bits_transmitted, 12);
        assert_eq!(
            result.bit_errors, 0,
            "activity-based channel should be error free at small NBO: {result:?}"
        );
        assert!(result.transmission_period_us > 1.0);
        assert!(result.bitrate_kbps > 10.0);
    }

    #[test]
    fn activation_count_channel_recovers_exact_values() {
        let result = run_covert_channel(CovertChannelKind::ActivationCountBased, 64, 6, 11);
        assert_eq!(
            result.bit_errors, 0,
            "count-based channel must be exact: {result:?}"
        );
        assert_eq!(result.bits_transmitted, 6 * 6); // log2(64) bits per symbol
    }

    #[test]
    fn count_based_channel_carries_more_bits_per_second_than_activity_based() {
        let activity = run_covert_channel(CovertChannelKind::ActivityBased, 64, 8, 5);
        let count = run_covert_channel(CovertChannelKind::ActivationCountBased, 64, 8, 5);
        assert!(
            count.bitrate_kbps > activity.bitrate_kbps,
            "count-based {count:?} should beat activity-based {activity:?}"
        );
        // And its period is roughly twice as long (two NBO-long phases).
        assert!(count.transmission_period_us > activity.transmission_period_us);
    }

    #[test]
    fn bitrate_decreases_with_nbo() {
        let small = run_covert_channel(CovertChannelKind::ActivityBased, 64, 4, 9);
        let large = run_covert_channel(CovertChannelKind::ActivityBased, 256, 4, 9);
        assert!(small.bitrate_kbps > large.bitrate_kbps);
        assert!(small.transmission_period_us < large.transmission_period_us);
    }

    #[test]
    fn error_rate_is_fraction_of_bits() {
        let r = CovertChannelResult {
            kind: CovertChannelKind::ActivityBased,
            nbo: 256,
            transmission_period_us: 10.0,
            bitrate_kbps: 100.0,
            bits_transmitted: 100,
            bit_errors: 3,
        };
        assert!((r.error_rate() - 0.03).abs() < 1e-12);
    }
}
