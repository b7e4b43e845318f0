//! # memctrl
//!
//! A DDR5 memory controller model for PRAC-enabled DRAM.
//!
//! The controller implements the system side of the paper's evaluation stack:
//!
//! * **Address mapping** from physical addresses to DRAM coordinates,
//!   including the Minimalist Open-Page (MOP) mapping of Table 3 and a
//!   bank-striped mapping that places consecutive cache lines of a page in
//!   different banks (the property that lets two processes share a DRAM row,
//!   enabling the activation-count channel).  One [`mapping::AddressMap`]
//!   serves every layout; in multi-channel organisations the bits right
//!   above the cache-line offset select the channel.
//! * **Scheduling**: First-Ready First-Come-First-Served (FR-FCFS) with a cap
//!   on consecutive row-buffer hits, plus open/closed page policies.
//! * **Refresh management**: periodic all-bank refresh every tREFI.
//! * **RFM management**: two RFM sources — the Alert Back-Off responder
//!   (ABO-RFM) as shared controller infrastructure, and one
//!   [`mitigation::Mitigation`] enum for every proactive policy — ACB-RFMs,
//!   TPRAC's Timing-Based RFMs with Targeted-Refresh co-design, periodic
//!   PRFM and probabilistic PARA — built from the device's
//!   [`prac_core::config::MitigationPolicy`].
//! * **Per-request latency recording**, the observable the PRACLeak attacks
//!   monitor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod controller;
pub mod mapping;
pub mod mitigation;
pub mod request;
pub mod rfm;
pub mod scheduler;
pub mod stats;

pub use controller::{ControllerConfig, MemoryController, PagePolicy};
pub use mapping::{AddressMap, MappingKind};
pub use request::{CompletedRequest, MemoryRequest, RequestKind};
pub use rfm::RfmKind;
pub use scheduler::FrFcfsScheduler;
pub use stats::ControllerStats;
