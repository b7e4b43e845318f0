//! Summary of DRAM timing parameters needed by the analytical models.
//!
//! The full cycle-accurate timing state machine lives in the `dram-sim` crate;
//! the analytical security and energy models here only need a handful of
//! device-level constants (row-cycle time, refresh interval and window, RFM
//! blocking time, rows per bank). [`DramTimingSummary`] captures exactly that
//! subset so that `prac-core` stays substrate-independent.

use serde::{Deserialize, Serialize};

/// Number of picoseconds per simulator tick used across the workspace.
///
/// The whole workspace operates on a single clock domain of 4 GHz
/// (0.25 ns per tick), which evenly divides every DDR5 timing parameter used
/// by the paper.
pub const PICOS_PER_TICK: u64 = 250;

/// Converts a duration in nanoseconds into simulator ticks (0.25 ns each).
#[must_use]
pub fn ns_to_ticks(ns: f64) -> u64 {
    ((ns * 1000.0) / PICOS_PER_TICK as f64).round() as u64
}

/// Converts simulator ticks back into nanoseconds.
#[must_use]
pub fn ticks_to_ns(ticks: u64) -> f64 {
    (ticks as f64 * PICOS_PER_TICK as f64) / 1000.0
}

/// Device-level timing constants consumed by the analytical models.
///
/// Field values default to the 32 Gb DDR5-8000B configuration of Table 3 in
/// the paper (with the PRAC-adjusted tRP/tWR already folded into `t_rc_ns`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramTimingSummary {
    /// Row-cycle time (ACT-to-ACT on the same bank), nanoseconds.
    pub t_rc_ns: f64,
    /// Average refresh command interval (tREFI), nanoseconds.
    pub t_refi_ns: f64,
    /// Refresh window (tREFW) over which all rows are refreshed once,
    /// nanoseconds. 32 ms for DDR5.
    pub t_refw_ns: f64,
    /// Refresh command blocking time (tRFC), nanoseconds.
    pub t_rfc_ns: f64,
    /// RFM All-Bank blocking time (tRFMab), nanoseconds.
    pub t_rfmab_ns: f64,
    /// Maximum additional activations allowed between an Alert assertion and
    /// the first RFM, expressed as a time bound (tABOACT), nanoseconds.
    pub t_abo_act_ns: f64,
    /// Number of DRAM rows per bank (128 K for the 32 Gb DDR5 chip).
    pub rows_per_bank: u32,
}

impl DramTimingSummary {
    /// Timing summary for the 32 Gb DDR5-8000B chip evaluated in the paper.
    #[must_use]
    pub fn ddr5_8000b() -> Self {
        Self {
            t_rc_ns: 52.0,
            t_refi_ns: 3900.0,
            t_refw_ns: 32.0 * 1_000_000.0,
            t_rfc_ns: 410.0,
            t_rfmab_ns: 350.0,
            t_abo_act_ns: 180.0,
            rows_per_bank: 128 * 1024,
        }
    }

    /// Maximum number of row activations that fit in one tREFI,
    /// accounting only for the row-cycle time.
    #[must_use]
    pub fn activations_per_trefi(&self) -> u32 {
        (self.t_refi_ns / self.t_rc_ns).floor() as u32
    }

    /// Maximum number of row activations that fit in one refresh window
    /// (tREFW) after subtracting the time consumed by the periodic refresh
    /// commands themselves.  This is the `MAXACT_tREFW` term of Equation (5)
    /// (~550 K for the evaluated device).
    #[must_use]
    pub fn max_activations_per_trefw(&self) -> u64 {
        let refreshes = (self.t_refw_ns / self.t_refi_ns).floor();
        let usable_ns = self.t_refw_ns - refreshes * self.t_rfc_ns;
        (usable_ns / self.t_rc_ns).floor() as u64
    }

    /// Number of tREFI intervals in one refresh window (8192 for DDR5).
    #[must_use]
    pub fn trefi_per_trefw(&self) -> u64 {
        (self.t_refw_ns / self.t_refi_ns).floor() as u64
    }

    /// tREFI expressed in simulator ticks.
    #[must_use]
    pub fn t_refi_ticks(&self) -> u64 {
        ns_to_ticks(self.t_refi_ns)
    }
}

impl Default for DramTimingSummary {
    fn default() -> Self {
        Self::ddr5_8000b()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr5_constants_match_table3() {
        let t = DramTimingSummary::ddr5_8000b();
        assert_eq!(t.t_rc_ns, 52.0);
        assert_eq!(t.t_refi_ns, 3900.0);
        assert_eq!(t.t_rfmab_ns, 350.0);
        assert_eq!(t.rows_per_bank, 128 * 1024);
    }

    #[test]
    fn activations_per_trefi_is_75() {
        // 3900 / 52 = 75 exactly.
        assert_eq!(DramTimingSummary::ddr5_8000b().activations_per_trefi(), 75);
    }

    #[test]
    fn max_activations_per_trefw_is_roughly_550k() {
        let max = DramTimingSummary::ddr5_8000b().max_activations_per_trefw();
        assert!(
            (540_000..=620_000).contains(&max),
            "expected ~550K activations per tREFW, got {max}"
        );
    }

    #[test]
    fn trefi_per_trefw_is_8205() {
        // 32 ms / 3.9 us = 8205 intervals.
        assert_eq!(DramTimingSummary::ddr5_8000b().trefi_per_trefw(), 8205);
    }

    #[test]
    fn tick_conversion_round_trips_for_exact_multiples() {
        for ns in [52.0, 350.0, 3900.0, 410.0, 180.0] {
            let ticks = ns_to_ticks(ns);
            assert!((ticks_to_ns(ticks) - ns).abs() < 1e-9);
        }
    }

    #[test]
    fn one_tick_is_quarter_ns() {
        assert_eq!(ns_to_ticks(1.0), 4);
        assert_eq!(ns_to_ticks(0.25), 1);
    }
}
