//! # prac-core
//!
//! Core abstractions for **Per Row Activation Counting (PRAC)** RowHammer
//! mitigations, the **TPRAC** (Timing-Safe PRAC) defense, and the analytical
//! worst-case security model used to size TPRAC's Timing-Based RFM interval.
//!
//! This crate is the paper's primary contribution distilled into a reusable
//! library. It is deliberately independent of any particular DRAM or CPU
//! simulator: the `dram-sim` and `memctrl` crates consume these types to build
//! a cycle-accurate model, while the analytical pieces ([`security`],
//! [`energy`], [`overhead`]) can be used standalone.
//!
//! ## What lives here
//!
//! * [`config`] — PRAC protocol parameters from the JEDEC DDR5 specification
//!   (Back-Off threshold `NBO`, PRAC level `Nmit`, `ABODelay` derived from
//!   it, Bank-Activation threshold `BAT`) plus the RowHammer threshold and
//!   mitigation-policy selection.  The policy is data: the memory controller
//!   (`memctrl::mitigation`) turns it into behaviour.
//! * [`queue`] — row indices and [`queue::QueueKind`], the mitigation-queue
//!   designs the storage model prices: the paper's single-entry
//!   frequency-based queue (the only one the cycle-accurate model runs,
//!   inline in each DRAM bank), a FIFO queue (shown insecure by prior work)
//!   and an idealised full-priority queue (UPRAC).
//! * [`tprac`] — the TPRAC configuration: the `TB-Window` between Timing-Based
//!   RFMs, the Targeted-Refresh rate and its analytical sizing.
//! * [`security`] — the Feinting/Wave worst-case analysis (Equations 1–5 of
//!   the paper) that computes the maximum activations an adversary can land on
//!   a single row (`TMAX`) and solves for the largest safe `TB-Window`.
//! * [`energy`] — the energy-overhead model behind Table 5.
//! * [`overhead`] — storage-overhead accounting (Section 6.8).
//!
//! ## Quick example
//!
//! ```
//! use prac_core::config::{PracConfig, PracLevel};
//! use prac_core::security::{SecurityAnalysis, CounterResetPolicy};
//! use prac_core::timing::DramTimingSummary;
//!
//! // Size TPRAC's TB-Window for a RowHammer threshold of 1024.
//! let timing = DramTimingSummary::ddr5_8000b();
//! let prac = PracConfig::builder()
//!     .rowhammer_threshold(1024)
//!     .prac_level(PracLevel::One)
//!     .build();
//! let analysis = SecurityAnalysis::new(&prac, &timing, CounterResetPolicy::ResetEveryTrefw);
//! let window = analysis.solve_tb_window().expect("a safe window exists");
//! assert!(window.tb_window_trefi > 0.5 && window.tb_window_trefi < 4.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod energy;
pub mod error;
pub mod overhead;
pub mod queue;
pub mod security;
pub mod timing;
pub mod tprac;

pub use config::{MitigationPolicy, PracConfig, PracConfigBuilder, PracLevel};
pub use error::{ConfigError, Result};
pub use queue::QueueKind;
pub use security::{CounterResetPolicy, SecurityAnalysis, TbWindowSolution};
pub use timing::DramTimingSummary;
pub use tprac::{TpracConfig, TrefRate};
