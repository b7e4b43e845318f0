//! # pracleak
//!
//! The **PRACLeak** attacks: covert and side channels that exploit the timing
//! variations introduced by PRAC's Alert Back-Off (ABO) protocol and Refresh
//! Management (RFM) commands, plus the experiment drivers that reproduce the
//! paper's attack figures.
//!
//! * [`aes`] — the side-channel victim, modelled as the four first-round
//!   T0 lookups of a T-table AES-128: their cache lines
//!   (`(p_i XOR k_i) >> 4`) leak the top nibble of a key byte, and T0's
//!   rows are the ones the attacker flushes and probes.
//! * [`agents`] — memory "agents" (attacker, victim, trojan, spy) that issue
//!   serialized dependent requests to the [`memctrl::MemoryController`] and
//!   record per-access latencies, plus the multi-agent runner and the
//!   [`agents::PatternAgent`] bridge driving any
//!   [`workloads::attack::AttackStream`].  The runner is event-driven: it
//!   jumps from tick to tick along the wake-ups the controller's `poll`
//!   returns and the agents' `wake_at` wake-ups.  An agent's `wake_at` must never return a
//!   tick at or before `now`, nor one after the first tick its
//!   `next_action` would act on.
//! * [`adversary`] — the attack-vs-mitigation experiment driver behind the
//!   `attacks` campaign: runs a registered pattern against a mitigated
//!   system and reports the per-cell security metrics (peak per-row
//!   activations vs `NRH`, aggressor coverage, RFM pressure).
//! * [`latency`] — latency-spike detection used by every receiver.
//! * [`characterize`] — the Figure 3 experiment: attacker-observed latency
//!   timelines with and without a concurrent ABO, across PRAC levels.
//! * [`covert`] — the activity-based and activation-count-based covert
//!   channels (Table 2): transmission period, bitrate and error rate.
//! * [`side_channel`] — the AES T-table side channel (Figures 4, 5 and 9):
//!   chosen-plaintext key-nibble recovery through ABO-triggering rows, with
//!   and without the TPRAC defense.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod aes;
pub mod agents;
pub mod characterize;
pub mod covert;
pub mod latency;
pub mod setup;
pub mod side_channel;

pub use adversary::{run_adversary, AdversaryOutcome};
pub use aes::{first_round_t0_lines, T_TABLE_CACHE_LINES};
pub use agents::{AgentId, MultiAgentRunner, PatternAgent, SerializedAccessAgent};
pub use characterize::{AboCharacterization, LatencySample};
pub use covert::{run_covert_channel, CovertChannelKind, CovertChannelResult};
pub use latency::SpikeDetector;
pub use setup::AttackSetup;
pub use side_channel::{SideChannelExperiment, SideChannelOutcome};
