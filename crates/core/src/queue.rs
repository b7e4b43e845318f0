//! In-DRAM mitigation-queue designs.
//!
//! The PRAC specification leaves the mitigation-queue design to DRAM vendors.
//! The paper (Section 4.1) proposes a **single-entry frequency-based queue
//! per bank**: the queue tracks the address and activation count of the most
//! heavily activated row, replaces its entry when another row's counter
//! exceeds the tracked count, and is drained (the tracked row is mitigated and
//! its counter reset) whenever an RFM reaches the bank.
//!
//! Two comparison points are also provided:
//!
//! * [`FifoQueue`] — a bounded FIFO of rows that crossed the Back-Off
//!   threshold, shown by prior work (QPRAC, MOAT) to be attackable.
//! * [`PriorityQueue`] — an idealised queue that remembers every activated
//!   row and always mitigates the global maximum (the UPRAC idealisation used
//!   as the security reference point in Section 4.2).

use std::collections::{HashMap, VecDeque};

use serde::{Deserialize, Serialize};

/// Identifier of a DRAM row within a bank.
pub type RowIndex = u32;

/// Which mitigation-queue design a simulation should instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum QueueKind {
    /// The paper's single-entry frequency-based queue.
    #[default]
    SingleEntryFrequency,
    /// A bounded FIFO queue of alerted rows.
    Fifo {
        /// Maximum number of pending entries.
        capacity: usize,
    },
    /// The idealised UPRAC priority queue (tracks all rows).
    Priority,
}

impl QueueKind {
    /// Instantiates the corresponding queue implementation.
    #[must_use]
    pub fn instantiate(self) -> Box<dyn MitigationQueue> {
        match self {
            QueueKind::SingleEntryFrequency => Box::new(SingleEntryQueue::new()),
            QueueKind::Fifo { capacity } => Box::new(FifoQueue::new(capacity)),
            QueueKind::Priority => Box::new(PriorityQueue::new()),
        }
    }
}

/// Behaviour shared by all in-DRAM mitigation-queue designs.
///
/// A queue observes every row activation in its bank (with the row's current
/// PRAC counter value) and, when the bank receives an RFM or Targeted
/// Refresh, nominates the row to mitigate.
pub trait MitigationQueue: std::fmt::Debug + Send {
    /// Deep-copies the queue behind its trait object (the fork primitive).
    fn clone_box(&self) -> Box<dyn MitigationQueue>;

    /// Records that `row` was activated and now has `activation_count`
    /// accumulated activations.
    fn observe_activation(&mut self, row: RowIndex, activation_count: u32);

    /// Removes and returns the row that should be mitigated by the next RFM,
    /// or `None` when the queue has nothing to mitigate.
    fn pop_for_mitigation(&mut self) -> Option<RowIndex>;

    /// Returns the row the queue would mitigate next without removing it.
    fn peek(&self) -> Option<RowIndex>;

    /// Notifies the queue that `row` was mitigated (its PRAC counter was
    /// reset), e.g. because a Targeted Refresh covered it.
    fn on_row_mitigated(&mut self, row: RowIndex);

    /// Clears all queue state (used when per-row counters are reset at tREFW).
    fn reset(&mut self);

    /// Number of rows currently tracked.
    fn len(&self) -> usize;

    /// Returns `true` when no rows are tracked.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The paper's single-entry frequency-based mitigation queue.
///
/// Tracks only the most heavily activated row seen since the last mitigation.
/// This is sufficient, in combination with TPRAC's fixed-interval TB-RFMs, to
/// match the security of the idealised UPRAC design (Section 4.2.3).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SingleEntryQueue {
    entry: Option<(RowIndex, u32)>,
}

impl SingleEntryQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The activation count of the currently tracked row, if any.
    #[must_use]
    pub fn tracked_count(&self) -> Option<u32> {
        self.entry.map(|(_, c)| c)
    }
}

impl Clone for Box<dyn MitigationQueue> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl MitigationQueue for SingleEntryQueue {
    fn clone_box(&self) -> Box<dyn MitigationQueue> {
        Box::new(self.clone())
    }

    fn observe_activation(&mut self, row: RowIndex, activation_count: u32) {
        match self.entry {
            Some((tracked_row, tracked_count)) => {
                if row == tracked_row {
                    self.entry = Some((row, activation_count.max(tracked_count)));
                } else if activation_count > tracked_count {
                    self.entry = Some((row, activation_count));
                }
            }
            None => self.entry = Some((row, activation_count)),
        }
    }

    fn pop_for_mitigation(&mut self) -> Option<RowIndex> {
        self.entry.take().map(|(row, _)| row)
    }

    fn peek(&self) -> Option<RowIndex> {
        self.entry.map(|(row, _)| row)
    }

    fn on_row_mitigated(&mut self, row: RowIndex) {
        if let Some((tracked, _)) = self.entry {
            if tracked == row {
                self.entry = None;
            }
        }
    }

    fn reset(&mut self) {
        self.entry = None;
    }

    fn len(&self) -> usize {
        usize::from(self.entry.is_some())
    }
}

/// Bounded FIFO queue of rows that crossed the Back-Off threshold.
///
/// Included as the insecure comparison point: a FIFO admits decoy rows in
/// arrival order, so an attacker can keep the target row out of the queue
/// (prior work demonstrates targeted attacks against this design).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FifoQueue {
    capacity: usize,
    entries: VecDeque<RowIndex>,
    /// Per-row counts seen so far, used only to decide admission (a row is
    /// admitted the first time it is observed after a drain).
    admission_threshold: u32,
}

impl FifoQueue {
    /// Creates a FIFO queue holding at most `capacity` pending rows.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity > 0,
            "FIFO mitigation queue capacity must be non-zero"
        );
        Self {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            admission_threshold: 1,
        }
    }

    /// Sets the activation count a row must reach before it is admitted.
    #[must_use]
    pub fn with_admission_threshold(mut self, threshold: u32) -> Self {
        self.admission_threshold = threshold.max(1);
        self
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl MitigationQueue for FifoQueue {
    fn clone_box(&self) -> Box<dyn MitigationQueue> {
        Box::new(self.clone())
    }

    fn observe_activation(&mut self, row: RowIndex, activation_count: u32) {
        if activation_count >= self.admission_threshold
            && !self.entries.contains(&row)
            && self.entries.len() < self.capacity
        {
            self.entries.push_back(row);
        }
    }

    fn pop_for_mitigation(&mut self) -> Option<RowIndex> {
        self.entries.pop_front()
    }

    fn peek(&self) -> Option<RowIndex> {
        self.entries.front().copied()
    }

    fn on_row_mitigated(&mut self, row: RowIndex) {
        self.entries.retain(|&r| r != row);
    }

    fn reset(&mut self) {
        self.entries.clear();
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// Idealised UPRAC priority queue: tracks the activation count of every row
/// and always nominates the global maximum for mitigation.
///
/// This is the security reference point of Section 4.2 — TPRAC with the
/// single-entry queue is shown to match it — and is also useful for the
/// queue-design ablation benchmark.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PriorityQueue {
    counts: HashMap<RowIndex, u32>,
}

impl PriorityQueue {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The activation count currently recorded for `row`.
    #[must_use]
    pub fn count_of(&self, row: RowIndex) -> u32 {
        self.counts.get(&row).copied().unwrap_or(0)
    }

    fn max_entry(&self) -> Option<RowIndex> {
        self.counts
            .iter()
            .max_by_key(|&(row, count)| (*count, std::cmp::Reverse(*row)))
            .map(|(row, _)| *row)
    }
}

impl MitigationQueue for PriorityQueue {
    fn clone_box(&self) -> Box<dyn MitigationQueue> {
        Box::new(self.clone())
    }

    fn observe_activation(&mut self, row: RowIndex, activation_count: u32) {
        let entry = self.counts.entry(row).or_insert(0);
        *entry = (*entry).max(activation_count);
    }

    fn pop_for_mitigation(&mut self) -> Option<RowIndex> {
        let row = self.max_entry()?;
        self.counts.remove(&row);
        Some(row)
    }

    fn peek(&self) -> Option<RowIndex> {
        self.max_entry()
    }

    fn on_row_mitigated(&mut self, row: RowIndex) {
        self.counts.remove(&row);
    }

    fn reset(&mut self) {
        self.counts.clear();
    }

    fn len(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_entry_tracks_the_maximum() {
        let mut q = SingleEntryQueue::new();
        q.observe_activation(10, 5);
        q.observe_activation(20, 3);
        assert_eq!(q.peek(), Some(10));
        q.observe_activation(20, 6);
        assert_eq!(q.peek(), Some(20));
        assert_eq!(q.tracked_count(), Some(6));
    }

    #[test]
    fn single_entry_same_row_updates_count() {
        let mut q = SingleEntryQueue::new();
        q.observe_activation(7, 1);
        q.observe_activation(7, 2);
        assert_eq!(q.tracked_count(), Some(2));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn single_entry_pop_empties_queue() {
        let mut q = SingleEntryQueue::new();
        q.observe_activation(3, 9);
        assert_eq!(q.pop_for_mitigation(), Some(3));
        assert!(q.is_empty());
        assert_eq!(q.pop_for_mitigation(), None);
    }

    #[test]
    fn single_entry_ties_keep_existing_entry() {
        // When the new row only equals (does not exceed) the tracked count,
        // the existing entry is retained — matching Figure 8(c) where only
        // one of the two equally-activated rows is tracked.
        let mut q = SingleEntryQueue::new();
        q.observe_activation(1, 43);
        q.observe_activation(2, 43);
        assert_eq!(q.peek(), Some(1));
    }

    #[test]
    fn single_entry_mitigated_notification_clears_only_tracked_row() {
        let mut q = SingleEntryQueue::new();
        q.observe_activation(5, 10);
        q.on_row_mitigated(6);
        assert_eq!(q.peek(), Some(5));
        q.on_row_mitigated(5);
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_preserves_arrival_order_and_capacity() {
        let mut q = FifoQueue::new(2);
        q.observe_activation(1, 1);
        q.observe_activation(2, 1);
        q.observe_activation(3, 1); // dropped: queue full
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop_for_mitigation(), Some(1));
        assert_eq!(q.pop_for_mitigation(), Some(2));
        assert_eq!(q.pop_for_mitigation(), None);
    }

    #[test]
    fn fifo_does_not_duplicate_rows() {
        let mut q = FifoQueue::new(4);
        q.observe_activation(9, 1);
        q.observe_activation(9, 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn fifo_admission_threshold_filters_cold_rows() {
        let mut q = FifoQueue::new(4).with_admission_threshold(10);
        q.observe_activation(1, 5);
        assert!(q.is_empty());
        q.observe_activation(1, 10);
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn fifo_zero_capacity_panics() {
        let _ = FifoQueue::new(0);
    }

    #[test]
    fn priority_queue_always_returns_global_max() {
        let mut q = PriorityQueue::new();
        q.observe_activation(1, 10);
        q.observe_activation(2, 30);
        q.observe_activation(3, 20);
        assert_eq!(q.pop_for_mitigation(), Some(2));
        assert_eq!(q.pop_for_mitigation(), Some(3));
        assert_eq!(q.pop_for_mitigation(), Some(1));
        assert_eq!(q.pop_for_mitigation(), None);
    }

    #[test]
    fn priority_queue_counts_are_monotone() {
        let mut q = PriorityQueue::new();
        q.observe_activation(1, 5);
        q.observe_activation(1, 3); // stale smaller count must not regress
        assert_eq!(q.count_of(1), 5);
    }

    #[test]
    fn reset_clears_all_designs() {
        for kind in [
            QueueKind::SingleEntryFrequency,
            QueueKind::Fifo { capacity: 8 },
            QueueKind::Priority,
        ] {
            let mut q = kind.instantiate();
            q.observe_activation(1, 1);
            q.observe_activation(2, 2);
            q.reset();
            assert!(q.is_empty(), "{kind:?} should be empty after reset");
        }
    }

    #[test]
    fn queue_kind_default_is_single_entry() {
        assert_eq!(QueueKind::default(), QueueKind::SingleEntryFrequency);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The single-entry queue always tracks a row whose observed count is
        /// the maximum over all observations since the last drain.
        #[test]
        fn single_entry_tracks_a_maximal_row(observations in proptest::collection::vec((0u32..64, 1u32..1000), 1..200)) {
            let mut q = SingleEntryQueue::new();
            let mut best: u32 = 0;
            for (row, count) in &observations {
                q.observe_activation(*row, *count);
                best = best.max(*count);
            }
            prop_assert_eq!(q.tracked_count().unwrap(), best);
        }

        /// The priority queue pops rows in non-increasing order of their
        /// maximum observed count.
        #[test]
        fn priority_pops_in_non_increasing_order(observations in proptest::collection::vec((0u32..32, 1u32..1000), 1..200)) {
            let mut q = PriorityQueue::new();
            let mut max_per_row = std::collections::HashMap::new();
            for (row, count) in &observations {
                q.observe_activation(*row, *count);
                let e = max_per_row.entry(*row).or_insert(0u32);
                *e = (*e).max(*count);
            }
            let mut last = u32::MAX;
            while let Some(row) = q.pop_for_mitigation() {
                let count = max_per_row.remove(&row).expect("popped row was observed");
                prop_assert!(count <= last);
                last = count;
            }
            prop_assert!(max_per_row.is_empty());
        }

        /// A FIFO queue never exceeds its capacity and never duplicates rows.
        #[test]
        fn fifo_respects_capacity(cap in 1usize..16, observations in proptest::collection::vec((0u32..64, 1u32..10), 1..200)) {
            let mut q = FifoQueue::new(cap);
            for (row, count) in observations {
                q.observe_activation(row, count);
                prop_assert!(q.len() <= cap);
            }
            let mut seen = std::collections::HashSet::new();
            while let Some(row) = q.pop_for_mitigation() {
                prop_assert!(seen.insert(row), "row {row} popped twice");
            }
        }
    }
}
