//! # system-sim
//!
//! The full-system simulation harness: trace-driven cores and caches
//! (`cpu-sim`) in front of a PRAC-enabled DDR5 memory system (`memctrl` +
//! `dram-sim`), used to reproduce the paper's performance, energy and
//! sensitivity studies (Figures 10–14 and Table 5).
//!
//! * [`system`] — the [`system::SystemSimulation`] wiring the CPU cluster to
//!   the memory subsystem, and the per-run result record (aggregate and
//!   per-channel statistics).
//! * [`subsystem`] — the multi-channel [`subsystem::MemorySubsystem`]: one
//!   memory controller (with its own PRAC device and mitigation engine) per
//!   channel behind a channel-bit address router, stepped sequentially in
//!   channel order; one channel reproduces the paper's single-channel
//!   system bit-identically.
//! * [`event`] — the two interchangeable execution engines, selected by
//!   [`event::EngineKind`]: the legacy per-tick loop and the event-driven
//!   engine whose slab-backed [`event::EventWheel`] jumps straight to each
//!   component's next wake-up while producing bit-identical results
//!   (asserted by `tests/engine_equivalence.rs`).
//! * [`experiment`] — the declarative defenses: [`experiment::MitigationSetup`]s
//!   (baseline, ABO-Only, ABO+ACB-RFM, TPRAC with/without TREF and counter
//!   reset, and the beyond-paper PRFM and PARA engines), the
//!   [`experiment::mitigation_registry`] of setups the CLI, the campaigns
//!   and the differential harness enumerate, and helpers that run a
//!   workload under a configuration and report normalised performance.
//!   [`experiment::ExperimentConfig`] also carries the adversarial
//!   co-runner knob (`attack`): when set, one extra core replays the
//!   stream of a `workloads::attack::AttackKind` next to the benign
//!   workload.
//! * [`energy`] — converts run results into the Table 5 energy-overhead rows
//!   via the `prac-core` energy model.
//! * [`snapshot`] — pause and fork:
//!   [`system::SystemSimulation::run_until`] pauses a run on a tick boundary
//!   as a [`snapshot::PausedSimulation`] that can be forked (deep-copied),
//!   refitted to a different mitigation configuration, and resumed
//!   bit-identically to an uninterrupted run.  The campaign executor does
//!   not fork (see `campaign::exec::execute_perf_group`); the layer is
//!   kept for `fork_equivalence` and the benchmark's traced re-drive.
//! * [`parallel`] — the scoped thread pool the campaign runner uses to
//!   sweep workloads and configurations concurrently.  One simulation
//!   always runs on one thread.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod energy;
pub mod event;
pub mod experiment;
pub mod parallel;
pub mod snapshot;
pub mod subsystem;
pub mod system;

pub use energy::energy_overhead_for;
pub use event::EngineKind;
pub use experiment::{
    mitigation_registry, run_workload, run_workload_normalized, workload_traces, ExperimentConfig,
    MitigationSetup, ResolvedMitigation, PARA_DEFAULT_SEED,
};
pub use parallel::parallel_map;
pub use snapshot::{fork_horizon, PausedSimulation, PrefixOutcome};
pub use subsystem::{ChannelStats, MemorySubsystem};
pub use system::{simulations_built, SystemConfig, SystemResult, SystemSimulation};
// The attacker-side registry mirrors `mitigation_registry` and is consumed
// by the same layers (campaigns, CLI, differential tests), so re-export it
// from the simulation facade alongside the defender-side setups.
pub use workloads::attack::{attack_registry, AttackKind};
