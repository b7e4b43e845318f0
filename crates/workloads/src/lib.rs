//! # workloads
//!
//! Synthetic workload generators standing in for the SPEC2006 / SPEC2017 /
//! CloudSuite traces used by the paper's performance study.
//!
//! The paper buckets its 50 workloads purely by memory intensity —
//! row-buffer misses per kilo-instruction (RBMPKI): High (≥ 10),
//! Medium (1–10) and Low (< 1) — and reports slowdowns per bucket.  The
//! generators here produce traces that land in the same buckets by
//! construction, so the *relative* performance results (who is hurt by
//! TB-RFMs, by roughly how much) are preserved even though the absolute
//! instruction streams differ from the proprietary traces.
//!
//! Three building blocks are provided:
//!
//! * [`generator::SyntheticWorkload`] — a parameterised generator
//!   (memory operations per kilo-instruction, footprint, access pattern,
//!   write fraction) whose `generate` draws every line-aligned address of a
//!   trace itself: streaming, row-strided and hot-set patterns cycle through
//!   their slots, random-over-footprint draws from a seeded RNG,
//! * [`suite`] — the named 50-workload suite mirroring Table 4's grouping
//!   into SPEC2K6-like, SPEC2K17-like and CloudSuite-like entries, plus a
//!   reduced "quick" suite for fast runs,
//! * [`attack`] — the adversary: the declarative [`attack::AttackKind`]
//!   (single-sided through decoy-blast and RFM-pressure), the one
//!   [`attack::AttackStream`] every kind builds, and the
//!   [`attack::attack_registry`] of kinds the campaigns and the CLI
//!   enumerate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attack;
pub mod generator;
pub mod suite;

pub use attack::{attack_registry, AttackAccess, AttackKind, AttackStream};
pub use generator::{AccessPattern, SyntheticWorkload};
pub use suite::{full_suite, quick_suite, MemoryIntensity, WorkloadGroup, WorkloadSpec};
