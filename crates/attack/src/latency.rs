//! Latency-spike detection.
//!
//! Every PRACLeak receiver works the same way: it times its own memory
//! accesses and classifies each sample as "normal" or "spiked by an RFM".
//! An RFM All-Bank blocks the channel for 350 ns, so an access that overlaps
//! one observes a latency hundreds of nanoseconds above the baseline; the
//! detector simply thresholds each sample against a fixed latency.

use serde::{Deserialize, Serialize};

/// Classifies access latencies into baseline accesses and RFM-induced spikes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpikeDetector {
    /// Latencies above this value (in nanoseconds) are classified as spikes.
    pub threshold_ns: f64,
}

impl SpikeDetector {
    /// Creates a detector with an explicit threshold.
    #[must_use]
    pub fn new(threshold_ns: f64) -> Self {
        Self { threshold_ns }
    }

    /// Whether a single latency sample is a spike.
    #[must_use]
    pub fn is_spike(&self, latency_ns: f64) -> bool {
        latency_ns > self.threshold_ns
    }

    /// Number of spikes in a latency series.
    #[must_use]
    pub fn count_spikes(&self, latencies_ns: &[f64]) -> usize {
        latencies_ns.iter().filter(|&&l| self.is_spike(l)).count()
    }

    /// Index of the first spike in a latency series, if any.
    #[must_use]
    pub fn first_spike(&self, latencies_ns: &[f64]) -> Option<usize> {
        latencies_ns.iter().position(|&l| self.is_spike(l))
    }
}

impl Default for SpikeDetector {
    fn default() -> Self {
        // A conservative default: normal accesses finish well under 250 ns
        // while an access stalled behind an RFMab exceeds 350 ns.
        Self {
            threshold_ns: 300.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_threshold_separates_rfm_spikes() {
        let d = SpikeDetector::default();
        assert!(!d.is_spike(80.0));
        assert!(!d.is_spike(250.0));
        assert!(d.is_spike(545.0)); // 1 RFM per ABO (paper's observed mean)
        assert!(d.is_spike(976.0)); // 2 RFMs per ABO
        assert!(d.is_spike(1669.0)); // 4 RFMs per ABO
    }

    #[test]
    fn counting_and_first_spike() {
        let d = SpikeDetector::new(300.0);
        let series = vec![100.0, 90.0, 600.0, 95.0, 700.0];
        assert_eq!(d.count_spikes(&series), 2);
        assert_eq!(d.first_spike(&series), Some(2));
        assert_eq!(d.first_spike(&[10.0, 20.0]), None);
    }

    #[test]
    fn empty_series_is_handled() {
        let d = SpikeDetector::default();
        assert_eq!(d.count_spikes(&[]), 0);
        assert_eq!(d.first_spike(&[]), None);
    }
}
