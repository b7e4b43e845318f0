//! DDR5 timing parameters in simulator ticks.
//!
//! All values are expressed in ticks of 0.25 ns (the workspace-wide 4 GHz
//! clock, see [`prac_core::timing::PICOS_PER_TICK`]).  The defaults implement
//! the 32 Gb DDR5-8000B device of Table 3 with the PRAC-adjusted precharge
//! and write-recovery timings already applied.

use prac_core::timing::{ns_to_ticks, ticks_to_ns, DramTimingSummary};
use serde::{Deserialize, Serialize};

/// Full timing parameter set used by the per-bank state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DramTimingParams {
    /// ACT → column command delay (tRCD).
    pub t_rcd: u64,
    /// Column read latency (tCL / CAS latency).
    pub t_cl: u64,
    /// ACT → PRE minimum (tRAS).
    pub t_ras: u64,
    /// PRE → ACT minimum on the same bank (tRP, PRAC-adjusted).
    pub t_rp: u64,
    /// ACT → ACT minimum on the same bank (tRC).
    pub t_rc: u64,
    /// Read → Precharge minimum (tRTP).
    pub t_rtp: u64,
    /// Write recovery time: end of write data → precharge (tWR).
    pub t_wr: u64,
    /// Data burst duration on the bus (tBL).
    pub t_bl: u64,
    /// Column-to-column delay (tCCD, same bank group).
    pub t_ccd: u64,
    /// ACT → ACT minimum across banks of the same rank (tRRD).
    pub t_rrd: u64,
    /// Refresh blocking time (tRFC).
    pub t_rfc: u64,
    /// Average refresh interval (tREFI).
    pub t_refi: u64,
    /// Refresh window over which counters may be reset (tREFW).
    pub t_refw: u64,
    /// RFM All-Bank blocking time (tRFMab).
    pub t_rfmab: u64,
    /// Alert Back-Off activation window (tABOACT): the time budget within
    /// which the controller may issue up to `ABOACT` further activations
    /// after Alert asserts.
    pub t_abo_act: u64,
    /// Four-activation window per rank (tFAW): no more than four ACTs may
    /// issue to one rank inside any window of this length.  `0` disables the
    /// constraint (the seed behaviour, preserved bit-for-bit).
    pub t_faw: u64,
    /// Per-rank refresh stagger: rank `r`'s refresh blackout starts
    /// `r * refresh_stagger` ticks after the refresh command, so other ranks
    /// keep serving commands during part of the tRFC window.  `0` keeps the
    /// channel-wide blanket blackout (the seed behaviour).
    pub refresh_stagger: u64,
}

impl DramTimingParams {
    /// Timing set for the 32 Gb DDR5-8000B device of Table 3.
    #[must_use]
    pub fn ddr5_8000b() -> Self {
        Self {
            t_rcd: ns_to_ticks(16.0),
            t_cl: ns_to_ticks(16.0),
            t_ras: ns_to_ticks(16.0),
            t_rp: ns_to_ticks(36.0),
            t_rc: ns_to_ticks(52.0),
            t_rtp: ns_to_ticks(5.0),
            t_wr: ns_to_ticks(10.0),
            t_bl: ns_to_ticks(2.0),
            t_ccd: ns_to_ticks(2.0),
            t_rrd: ns_to_ticks(2.0),
            t_rfc: ns_to_ticks(410.0),
            t_refi: ns_to_ticks(3900.0),
            t_refw: ns_to_ticks(32.0 * 1_000_000.0),
            t_rfmab: ns_to_ticks(350.0),
            t_abo_act: ns_to_ticks(180.0),
            t_faw: 0,
            refresh_stagger: 0,
        }
    }

    /// A compressed timing set for fast unit tests (same structural
    /// relationships, much smaller refresh window).
    #[must_use]
    pub fn fast_for_tests() -> Self {
        Self {
            t_refw: ns_to_ticks(50_000.0),
            ..Self::ddr5_8000b()
        }
    }

    /// Read latency from column command to first data beat (tCL),
    /// plus the burst itself.
    #[must_use]
    pub fn read_latency(&self) -> u64 {
        self.t_cl + self.t_bl
    }

    /// Returns the summary view used by the analytical models in `prac-core`.
    #[must_use]
    pub fn summary(&self, rows_per_bank: u32) -> DramTimingSummary {
        DramTimingSummary {
            t_rc_ns: ticks_to_ns(self.t_rc),
            t_refi_ns: ticks_to_ns(self.t_refi),
            t_refw_ns: ticks_to_ns(self.t_refw),
            t_rfc_ns: ticks_to_ns(self.t_rfc),
            t_rfmab_ns: ticks_to_ns(self.t_rfmab),
            t_abo_act_ns: ticks_to_ns(self.t_abo_act),
            rows_per_bank,
        }
    }

    /// Sanity-checks internal consistency of the timing set.
    #[must_use]
    pub fn is_consistent(&self) -> bool {
        self.t_rc >= self.t_ras + self.t_rp.min(self.t_rc)
            && self.t_rc >= self.t_ras
            && self.t_refi > self.t_rfc
            && self.t_refw > self.t_refi
            && self.t_rfmab > 0
            && self.t_rcd > 0
            && self.t_cl > 0
    }
}

impl Default for DramTimingParams {
    fn default() -> Self {
        Self::ddr5_8000b()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr5_values_match_table3_in_ticks() {
        let t = DramTimingParams::ddr5_8000b();
        assert_eq!(t.t_rcd, 64); // 16 ns
        assert_eq!(t.t_rp, 144); // 36 ns (PRAC adjusted)
        assert_eq!(t.t_rc, 208); // 52 ns
        assert_eq!(t.t_rfmab, 1400); // 350 ns
        assert_eq!(t.t_refi, 15_600); // 3.9 us
        assert_eq!(t.t_rfc, 1640); // 410 ns
        assert!(t.is_consistent());
    }

    #[test]
    fn read_latency_includes_burst() {
        let t = DramTimingParams::ddr5_8000b();
        assert_eq!(t.read_latency(), t.t_cl + t.t_bl);
    }

    #[test]
    fn summary_round_trips_to_ns() {
        let t = DramTimingParams::ddr5_8000b();
        let s = t.summary(128 * 1024);
        assert!((s.t_rc_ns - 52.0).abs() < 1e-9);
        assert!((s.t_refi_ns - 3900.0).abs() < 1e-9);
        assert!((s.t_rfmab_ns - 350.0).abs() < 1e-9);
        assert_eq!(s.rows_per_bank, 128 * 1024);
    }

    #[test]
    fn fast_test_timing_is_consistent() {
        assert!(DramTimingParams::fast_for_tests().is_consistent());
    }

    #[test]
    fn rank_level_knobs_default_off() {
        // The seed device has no tFAW constraint and no refresh staggering;
        // both knobs must stay 0 in every stock timing set so the default
        // path is bit-identical to the pre-rank-refactor simulator.
        let t = DramTimingParams::ddr5_8000b();
        assert_eq!(t.t_faw, 0);
        assert_eq!(t.refresh_stagger, 0);
        let fast = DramTimingParams::fast_for_tests();
        assert_eq!(fast.t_faw, 0);
        assert_eq!(fast.refresh_stagger, 0);
    }

    #[test]
    fn inconsistent_timing_detected() {
        let mut t = DramTimingParams::ddr5_8000b();
        t.t_refi = 1;
        assert!(!t.is_consistent());
    }
}
