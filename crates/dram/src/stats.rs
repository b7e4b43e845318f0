//! Device-side statistics collected during simulation.

use serde::{Deserialize, Serialize};

/// Counters accumulated by [`crate::device::DramDevice`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DramStats {
    /// Row activations performed (demand ACT commands).
    pub activations: u64,
    /// Precharges performed.
    pub precharges: u64,
    /// Column reads performed.
    pub reads: u64,
    /// Column writes performed.
    pub writes: u64,
    /// All-bank refresh commands serviced.
    pub refreshes: u64,
    /// RFM All-Bank commands serviced.
    pub rfm_all_bank: u64,
    /// Rows mitigated via RFM commands (summed over banks).
    pub rows_mitigated_by_rfm: u64,
    /// Rows mitigated via Targeted Refresh.
    pub rows_mitigated_by_tref: u64,
    /// Number of times the Alert signal was asserted (ABO events).
    pub alerts_asserted: u64,
    /// Number of per-row counter resets performed at tREFW boundaries
    /// (counted once per reset event, not per row).
    pub counter_resets: u64,
    /// Highest per-row PRAC counter value *observed at activate time* over
    /// the whole run — the security headline of an attack run: a value at or
    /// above the RowHammer threshold means some row was hammered past `NRH`
    /// before any mitigation reset it.  (The live counters reset on RFM /
    /// TREF / tREFW, so this peak is tracked here rather than recovered from
    /// the final bank state.)
    pub max_row_counter: u32,
}

impl DramStats {
    /// Total rows mitigated by any mechanism.
    #[must_use]
    pub fn total_mitigations(&self) -> u64 {
        self.rows_mitigated_by_rfm + self.rows_mitigated_by_tref
    }

    /// Commands the device accepted: ACT, PRE, RD, WR, REF and RFMab.
    #[must_use]
    pub fn total_commands(&self) -> u64 {
        self.activations
            + self.precharges
            + self.reads
            + self.writes
            + self.refreshes
            + self.rfm_all_bank
    }

    /// Merges another statistics block into this one (used when aggregating
    /// across devices or runs).
    pub fn merge(&mut self, other: &DramStats) {
        self.activations += other.activations;
        self.precharges += other.precharges;
        self.reads += other.reads;
        self.writes += other.writes;
        self.refreshes += other.refreshes;
        self.rfm_all_bank += other.rfm_all_bank;
        self.rows_mitigated_by_rfm += other.rows_mitigated_by_rfm;
        self.rows_mitigated_by_tref += other.rows_mitigated_by_tref;
        self.alerts_asserted += other.alerts_asserted;
        self.counter_resets += other.counter_resets;
        // A peak, not a flow: the subsystem-wide maximum is the max of the
        // per-channel maxima.
        self.max_row_counter = self.max_row_counter.max(other.max_row_counter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_all_fields() {
        let mut a = DramStats {
            activations: 1,
            precharges: 2,
            reads: 3,
            writes: 4,
            refreshes: 5,
            rfm_all_bank: 6,
            rows_mitigated_by_rfm: 7,
            rows_mitigated_by_tref: 8,
            alerts_asserted: 9,
            counter_resets: 10,
            max_row_counter: 11,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.activations, 2);
        assert_eq!(a.counter_resets, 20);
        assert_eq!(a.total_mitigations(), 30);
        assert_eq!(a.max_row_counter, 11, "peaks merge by max, not by sum");
    }

    #[test]
    fn default_is_zeroed() {
        let s = DramStats::default();
        assert_eq!(s.total_mitigations(), 0);
        assert_eq!(s.activations, 0);
    }
}
