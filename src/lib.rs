//! # prac-timing
//!
//! Reproduction of *"When Mitigations Backfire: Timing Channel Attacks and
//! Defense for PRAC-Based RowHammer Mitigations"* (ISCA 2025): the
//! **PRACLeak** covert- and side-channel attacks on PRAC's Alert Back-Off
//! protocol, and the **TPRAC** defense that closes those timing channels with
//! activity-independent Timing-Based RFMs.
//!
//! This crate is the umbrella: it re-exports the workspace's component crates
//! so applications can depend on a single crate, and hosts the runnable
//! examples and cross-crate integration tests.
//!
//! ## Workspace layout
//!
//! | Component | Crate | What it provides |
//! |---|---|---|
//! | PRAC / TPRAC core | [`prac_core`] | PRAC parameters and the `MitigationPolicy` each run selects, the storage model's mitigation-queue designs (`QueueKind`), TB-Window security analysis, energy & storage models |
//! | DRAM device | [`dram_sim`] | Cycle-accurate DDR5 model with per-row activation counters, the paper's single-entry mitigation queue per bank and Alert Back-Off |
//! | Memory controller | [`memctrl`] | Channel-aware address mapping, FR-FCFS scheduling, refresh, the ABO responder and the `Mitigation` enum behind every proactive policy |
//! | CPU | [`cpu_sim`] | Trace-driven ROB-limited cores with an L1/L2/LLC hierarchy |
//! | Workloads | [`workloads`] | Synthetic workload suite bucketed by memory intensity, seedable end-to-end, plus the `AttackKind` adversary, its one `AttackStream` and the registry of kinds |
//! | Attacks | [`pracleak`] | PRACLeak covert channels, the AES T-table side channel (the victim's four first-round T0 lookups per encryption), and the attack-vs-mitigation adversary driver |
//! | Full system | [`system_sim`] | The simulation harness: multi-channel `MemorySubsystem`, twin tick/event engines, the scoped-thread `parallel_map` |
//! | Campaigns | [`campaign`] | Declarative scenario sweeps, result cache, artifacts and the `prac-bench` CLI |
//! | Microbenches | `bench-harness` | Criterion micro-benchmarks of the simulator kernels, including the single-entry queue's activate/drain path |
//!
//! (External dependencies resolve to offline shims under `crates/compat/`;
//! see that directory's README.)
//!
//! ## Reproducing the paper
//!
//! Every figure and table is a registered campaign; the `prac-bench` binary
//! lists and runs them with parallel execution, an incremental result cache
//! and JSON/CSV artifacts under `target/campaigns/`:
//!
//! ```text
//! cargo run --release --bin prac-bench -- list
//! cargo run --release --bin prac-bench -- mitigations
//! cargo run --release --bin prac-bench -- attacks
//! cargo run --release --bin prac-bench -- run fig10 --quick
//! cargo run --release --bin prac-bench -- run attacks --quick
//! cargo run --release --bin prac-bench -- run --all --full
//! ```
//!
//! A second `run` of an unchanged campaign is served from the cache; any
//! change to a scenario (threshold, seed, budget, workload) re-runs exactly
//! the cells it touches.
//!
//! Full-system cells execute under one of two interchangeable engines
//! (`--engine tick` or `--engine event`; the event-driven engine is the
//! default).  They produce bit-identical results — enforced by the
//! differential suite in `tests/engine_equivalence.rs` — so the choice only
//! affects wall-clock time, and cached results stay valid across engines.
//!
//! ## Quickstart
//!
//! ```
//! use prac_timing::prelude::*;
//!
//! // Size TPRAC's TB-Window for the paper's default RowHammer threshold and
//! // confirm it closes the timing channel with modest bandwidth cost.
//! let timing = DramTimingSummary::ddr5_8000b();
//! let analysis = SecurityAnalysis::with_back_off_threshold(
//!     1024,
//!     &timing,
//!     CounterResetPolicy::ResetEveryTrefw,
//! );
//! let window = analysis.solve_tb_window().expect("safe window exists");
//! assert!(window.tmax < 1024);
//! assert!(window.bandwidth_loss < 0.10);
//! ```
//!
//! ## Hammering a PRAC device and applying the defense
//!
//! The condensed form of `examples/quickstart.rs`: build a PRAC-enabled
//! DDR5 memory system, drive a registered RowHammer pattern against it, and
//! watch TPRAC keep the peak per-row activation count below the threshold
//! while the undefended device is breached.
//!
//! ```
//! use prac_timing::prelude::*;
//! use prac_timing::pracleak::adversary::run_adversary;
//! use prac_timing::pracleak::AttackSetup;
//!
//! let nbo = 512;
//!
//! // Undefended (mitigation disabled outright): the double-sided hammer
//! // pushes some row's PRAC counter past the threshold.
//! let undefended = AttackSetup::new(nbo).with_policy(MitigationPolicy::Disabled);
//! let breached = run_adversary(&AttackKind::DoubleSided, &undefended, 1_400, 10_000_000, 0);
//! assert!(breached.breached(nbo));
//!
//! // TPRAC: solve the largest safe TB-Window for the same threshold and
//! // hammer again — the peak stays below NBO and the attacker pays a
//! // slowdown for every Timing-Based RFM.
//! let timing = DramTimingSummary::ddr5_8000b();
//! let tprac = TpracConfig::solve_for_threshold(
//!     nbo,
//!     &timing,
//!     CounterResetPolicy::ResetEveryTrefw,
//! )
//! .expect("safe window exists");
//! let defended = AttackSetup::new(nbo).with_policy(MitigationPolicy::Tprac(tprac));
//! let held = run_adversary(&AttackKind::DoubleSided, &defended, 1_400, 10_000_000, 0);
//! assert!(!held.breached(nbo));
//! assert!(held.rfms_triggered > 0);
//! assert!(held.elapsed_ticks > breached.elapsed_ticks);
//! ```
//!
//! ## The covert channel
//!
//! The condensed form of `examples/covert_channel.rs`: a trojan and a spy
//! with no architectural channel transmit bits through PRAC's Alert
//! Back-Off timing channel (Section 3.2 / Table 2 of the paper).  The
//! activity-based variant signals one bit per window through the presence
//! or absence of an ABO-RFM latency spike; the activation-count variant
//! encodes `log2(NBO)` bits in the shared row's activation counter.
//!
//! ```
//! use prac_timing::prelude::*;
//! use prac_timing::pracleak::covert::run_covert_channel;
//!
//! let result = run_covert_channel(CovertChannelKind::ActivityBased, 256, 4, 0xC0FFEE);
//! assert_eq!(result.bits_transmitted, 4);
//! assert_eq!(result.bit_errors, 0, "the quick configuration is noise-free");
//! assert!(result.bitrate_kbps > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use campaign;
pub use cpu_sim;
pub use dram_sim;
pub use memctrl;
pub use prac_core;
pub use pracleak;
pub use system_sim;
pub use workloads;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use campaign::{Campaign, CampaignRunner, Profile, Scenario, ScenarioSpec};
    pub use cpu_sim::{CpuConfig, Trace, TraceOp};
    pub use dram_sim::{DramDevice, DramDeviceConfig, DramOrganization, DramTimingParams};
    pub use memctrl::{AddressMap, ControllerConfig, MemoryController, MemoryRequest, PagePolicy};
    pub use prac_core::config::{MitigationPolicy, PracConfig, PracLevel};
    pub use prac_core::queue::QueueKind;
    pub use prac_core::security::{CounterResetPolicy, SecurityAnalysis, TbWindowSolution};
    pub use prac_core::timing::DramTimingSummary;
    pub use prac_core::tprac::{TpracConfig, TrefRate};
    pub use pracleak::{
        first_round_t0_lines, AttackSetup, CovertChannelKind, SideChannelExperiment, SpikeDetector,
    };
    pub use system_sim::{
        mitigation_registry, ChannelStats, EngineKind, ExperimentConfig, MemorySubsystem,
        MitigationSetup, SystemResult,
    };
    pub use workloads::{
        attack_registry, AccessPattern, AttackAccess, AttackKind, AttackStream, MemoryIntensity,
        SyntheticWorkload,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_core_types() {
        use crate::prelude::*;
        let cfg = PracConfig::paper_default();
        assert_eq!(cfg.rowhammer_threshold, 1024);
        let timing = DramTimingSummary::ddr5_8000b();
        assert_eq!(timing.activations_per_trefi(), 75);
    }
}
