//! Row indices and the mitigation-queue designs of the storage model.
//!
//! The PRAC specification leaves the mitigation-queue design to DRAM vendors.
//! The paper (Section 4.1) proposes a **single-entry frequency-based queue
//! per bank**: the queue tracks the address and activation count of the most
//! heavily activated row, replaces its entry when another row's counter
//! exceeds the tracked count, and is drained (the tracked row is mitigated and
//! its counter reset) whenever an RFM reaches the bank.  The cycle-accurate
//! model runs only that queue, inline in each bank's cold state
//! (`dram_sim::bank::BankMeta`).
//!
//! [`QueueKind`] names that design and two comparison points, so the
//! analytical storage model ([`crate::overhead::StorageModel`]) can price
//! each one: a bounded FIFO of alerted rows, shown by prior work (QPRAC,
//! MOAT) to be attackable, and the idealised UPRAC priority queue that
//! tracks every row (the security reference point of Section 4.2).

use serde::{Deserialize, Serialize};

/// Identifier of a DRAM row within a bank.
pub type RowIndex = u32;

/// A mitigation-queue design, as priced by the storage model.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_kind_default_is_single_entry() {
        assert_eq!(QueueKind::default(), QueueKind::SingleEntryFrequency);
    }
}
