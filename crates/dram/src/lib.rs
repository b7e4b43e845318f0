//! # dram-sim
//!
//! A cycle-accurate DDR5 DRAM device model with **Per Row Activation Counting
//! (PRAC)** support, built for studying RowHammer mitigations and the timing
//! channels they introduce.
//!
//! The model covers everything the paper's evaluation needs from Ramulator2:
//!
//! * the DDR5 organisation of Table 3 (channel → rank → bank group → bank →
//!   row → column) with the 32 Gb DDR5-8000B timing set,
//! * a per-bank command/state machine enforcing the relevant timing
//!   constraints (tRCD, tRAS, tRP, tRC, tWR, tRTP, tCCD, tRRD, tRFC,
//!   tRFMab, tREFI),
//! * open-row tracking (row-buffer hits vs conflicts),
//! * per-row activation counters incremented on every activation,
//! * the Alert Back-Off protocol: the device asserts Alert when any counter
//!   reaches the Back-Off threshold, honours `ABODelay`, and performs
//!   mitigations when the controller issues RFM All-Bank commands (the
//!   `tABOACT` window before the first RFM is the controller's to time),
//! * the paper's single-entry frequency-based mitigation queue in every
//!   bank ([`bank::BankMeta`]),
//! * Targeted Refresh (TREF) piggy-backed on periodic refresh,
//! * optional per-row counter reset at every refresh window (tREFW),
//! * activation/refresh/RFM statistics for the energy model.
//!
//! The memory controller lives in the separate `memctrl` crate; this crate
//! only models the device side of the interface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bank;
pub mod command;
pub mod device;
pub mod org;
pub mod profile;
pub mod stats;
pub mod timing;

pub use command::DramCommand;
pub use device::{DramDevice, DramDeviceConfig};
pub use org::{DramAddress, DramOrganization};
pub use profile::{DeviceProfile, EccAdjudication, OnDieEcc};
pub use stats::DramStats;
pub use timing::DramTimingParams;
