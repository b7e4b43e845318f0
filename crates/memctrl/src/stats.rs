//! Controller-side statistics: request latencies, row-buffer behaviour and
//! RFM accounting.

use prac_core::timing::ticks_to_ns;
use serde::{Deserialize, Serialize};

use crate::rfm::RfmKind;

/// Counters accumulated by the memory controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ControllerStats {
    /// Read requests completed.
    pub reads_completed: u64,
    /// Write requests completed.
    pub writes_completed: u64,
    /// Requests serviced with the target row already open.
    pub row_hits: u64,
    /// Requests serviced after opening a closed row.
    pub row_misses: u64,
    /// Requests serviced after closing a different open row (conflicts).
    pub row_conflicts: u64,
    /// Periodic refreshes issued.
    pub refreshes_issued: u64,
    /// RFMs issued by the Alert Back-Off responder.
    pub abo_rfms: u64,
    /// Proactive Activation-Based RFMs issued.
    pub acb_rfms: u64,
    /// TPRAC Timing-Based RFMs issued.
    pub tb_rfms: u64,
    /// Periodic (PRFM) RFMs issued on the fixed tREFI cadence.
    pub periodic_rfms: u64,
    /// PARA-style probabilistic RFMs issued.
    pub para_rfms: u64,
    /// TB-RFMs skipped thanks to Targeted Refreshes.
    pub tb_rfms_skipped: u64,
    /// Sum of completed-request latencies, in ticks.
    pub total_latency_ticks: u64,
    /// Maximum observed request latency, in ticks.
    pub max_latency_ticks: u64,
}

impl ControllerStats {
    /// Total requests completed.
    #[must_use]
    pub fn requests_completed(&self) -> u64 {
        self.reads_completed + self.writes_completed
    }

    /// Total RFMs issued, of any kind.
    #[must_use]
    pub fn total_rfms(&self) -> u64 {
        self.abo_rfms + self.acb_rfms + self.tb_rfms + self.periodic_rfms + self.para_rfms
    }

    /// Average request latency in ticks (0 when nothing completed).
    #[must_use]
    pub fn average_latency_ticks(&self) -> f64 {
        let n = self.requests_completed();
        if n == 0 {
            0.0
        } else {
            self.total_latency_ticks as f64 / n as f64
        }
    }

    /// Average request latency in nanoseconds.
    #[must_use]
    pub fn average_latency_ns(&self) -> f64 {
        self.average_latency_ticks() * ticks_to_ns(1)
    }

    /// Row-buffer hit rate over all completed requests.
    #[must_use]
    pub fn row_hit_rate(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            0.0
        } else {
            self.row_hits as f64 / total as f64
        }
    }

    /// Records an issued RFM of the given kind.
    pub fn record_rfm(&mut self, kind: RfmKind) {
        match kind {
            RfmKind::AboRfm => self.abo_rfms += 1,
            RfmKind::AcbRfm => self.acb_rfms += 1,
            RfmKind::TbRfm => self.tb_rfms += 1,
            RfmKind::PeriodicRfm => self.periodic_rfms += 1,
            RfmKind::ParaRfm => self.para_rfms += 1,
        }
    }

    /// Records a completed request's latency.
    pub fn record_latency(&mut self, latency_ticks: u64) {
        self.total_latency_ticks += latency_ticks;
        self.max_latency_ticks = self.max_latency_ticks.max(latency_ticks);
    }

    /// Merges another statistics block into this one (used when aggregating
    /// across the channels of a memory subsystem): counters add, the
    /// maximum latency takes the max.
    ///
    /// The exhaustive destructuring makes adding a field to
    /// [`ControllerStats`] without aggregating it here a compile error.
    pub fn merge(&mut self, other: &ControllerStats) {
        let ControllerStats {
            reads_completed,
            writes_completed,
            row_hits,
            row_misses,
            row_conflicts,
            refreshes_issued,
            abo_rfms,
            acb_rfms,
            tb_rfms,
            periodic_rfms,
            para_rfms,
            tb_rfms_skipped,
            total_latency_ticks,
            max_latency_ticks,
        } = *other;
        self.reads_completed += reads_completed;
        self.writes_completed += writes_completed;
        self.row_hits += row_hits;
        self.row_misses += row_misses;
        self.row_conflicts += row_conflicts;
        self.refreshes_issued += refreshes_issued;
        self.abo_rfms += abo_rfms;
        self.acb_rfms += acb_rfms;
        self.tb_rfms += tb_rfms;
        self.periodic_rfms += periodic_rfms;
        self.para_rfms += para_rfms;
        self.tb_rfms_skipped += tb_rfms_skipped;
        self.total_latency_ticks += total_latency_ticks;
        self.max_latency_ticks = self.max_latency_ticks.max(max_latency_ticks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_empty_stats() {
        let s = ControllerStats::default();
        assert_eq!(s.average_latency_ticks(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
        assert_eq!(s.total_rfms(), 0);
    }

    #[test]
    fn rfm_recording_by_kind() {
        let mut s = ControllerStats::default();
        s.record_rfm(RfmKind::AboRfm);
        s.record_rfm(RfmKind::TbRfm);
        s.record_rfm(RfmKind::TbRfm);
        s.record_rfm(RfmKind::AcbRfm);
        s.record_rfm(RfmKind::PeriodicRfm);
        s.record_rfm(RfmKind::ParaRfm);
        assert_eq!(s.abo_rfms, 1);
        assert_eq!(s.tb_rfms, 2);
        assert_eq!(s.acb_rfms, 1);
        assert_eq!(s.periodic_rfms, 1);
        assert_eq!(s.para_rfms, 1);
        assert_eq!(s.total_rfms(), 6);
    }

    #[test]
    fn latency_accumulates_and_tracks_max() {
        let mut s = ControllerStats {
            reads_completed: 2,
            ..Default::default()
        };
        s.record_latency(100);
        s.record_latency(300);
        assert_eq!(s.total_latency_ticks, 400);
        assert_eq!(s.max_latency_ticks, 300);
        assert!((s.average_latency_ticks() - 200.0).abs() < 1e-9);
        assert!((s.average_latency_ns() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn merge_sums_counters_and_maxes_latency() {
        let mut a = ControllerStats {
            reads_completed: 3,
            row_hits: 2,
            tb_rfms: 1,
            total_latency_ticks: 500,
            max_latency_ticks: 400,
            ..Default::default()
        };
        let b = ControllerStats {
            reads_completed: 1,
            row_hits: 4,
            abo_rfms: 2,
            total_latency_ticks: 100,
            max_latency_ticks: 90,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.reads_completed, 4);
        assert_eq!(a.row_hits, 6);
        assert_eq!(a.tb_rfms, 1);
        assert_eq!(a.abo_rfms, 2);
        assert_eq!(a.total_latency_ticks, 600);
        assert_eq!(a.max_latency_ticks, 400);
    }

    #[test]
    fn hit_rate_computation() {
        let s = ControllerStats {
            row_hits: 3,
            row_misses: 1,
            row_conflicts: 0,
            ..Default::default()
        };
        assert!((s.row_hit_rate() - 0.75).abs() < 1e-9);
    }
}
