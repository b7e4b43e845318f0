//! Per-bank state: row buffer, timing windows, PRAC activation counters and
//! the in-DRAM mitigation queue.
//!
//! The hot timing state (open row + the three earliest-legal-time windows)
//! lives in a struct-of-arrays [`BankTimingTable`] so the device can scan
//! and min-reduce across every bank of a channel without striding over the
//! cold per-bank state (PRAC counter maps and mitigation queues), which
//! stays in [`BankMeta`].  [`BankRef`] is the read-only per-bank view the
//! device hands out.

use std::collections::HashMap;

use prac_core::queue::{MitigationQueue, QueueKind, RowIndex};

use crate::command::IssueError;
use crate::timing::DramTimingParams;

/// Sentinel stored in [`BankTimingTable::open_row`] for a precharged bank.
///
/// Row indices are physical row numbers (< 2^31 in any real geometry), so
/// `u32::MAX` can never collide with an open row.
pub const ROW_NONE: u32 = u32::MAX;

/// Low bits of each [`BankTimingTable::packed_transition`] lane reserved
/// for the bank index (so the table is capped at 2^16 banks).
const INDEX_BITS: u32 = 16;

/// Largest tick that packs without colliding with the index bits.
const TICK_CEIL: u64 = u64::MAX >> INDEX_BITS;

/// Struct-of-arrays timing state for every bank of one channel.
///
/// Each index holds the state the old per-bank struct kept inline:
///
/// * `open_row` — currently open row, [`ROW_NONE`] when precharged,
/// * `next_act` — earliest tick an ACT may be issued (tRC/tRP),
/// * `next_pre` — earliest tick a PRE may be issued (tRAS / recovery),
/// * `next_column` — earliest tick a RD/WR may be issued (tRCD/tCCD).
///
/// `packed_transition` is derived state: bank `i`'s next transition tick
/// (see [`BankTimingTable::next_transition_at`]) packed into the high
/// `64 - INDEX_BITS` bits with the bank index below.  Every mutator
/// refreshes the touched lane, which keeps the channel-wide min-reduce —
/// the hot read in the event engine's wake-up computation, called far more
/// often than any timing window moves — down to a single loop-carried
/// `min` per bank over one contiguous array.
#[derive(Debug, Clone)]
pub struct BankTimingTable {
    open_row: Vec<u32>,
    next_act: Vec<u64>,
    next_pre: Vec<u64>,
    next_column: Vec<u64>,
    packed_transition: Vec<u64>,
}

impl BankTimingTable {
    /// Creates timing state for `banks` idle, fully-precharged banks.
    #[must_use]
    pub fn new(banks: usize) -> Self {
        debug_assert!(
            banks < (1 << INDEX_BITS),
            "bank index must fit the packed-transition low bits"
        );
        Self {
            open_row: vec![ROW_NONE; banks],
            next_act: vec![0; banks],
            next_pre: vec![0; banks],
            next_column: vec![0; banks],
            // Idle precharged banks can transition (ACT) at tick 0.
            packed_transition: (0..banks as u64).collect(),
        }
    }

    /// Number of banks tracked by the table.
    #[must_use]
    pub fn len(&self) -> usize {
        self.open_row.len()
    }

    /// Whether the table tracks no banks at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.open_row.is_empty()
    }

    /// The open row of every bank, indexed by flat bank, with [`ROW_NONE`]
    /// for a precharged bank.
    #[must_use]
    pub fn open_rows(&self) -> &[u32] {
        &self.open_row
    }

    /// The currently open row of bank `i`, if the bank is active.
    #[must_use]
    pub fn open_row(&self, i: usize) -> Option<u32> {
        let row = self.open_row[i];
        (row != ROW_NONE).then_some(row)
    }

    /// Earliest tick at which an ACT to bank `i` is legal.
    #[must_use]
    pub fn act_ready_at(&self, i: usize) -> u64 {
        self.next_act[i]
    }

    /// Earliest tick at which *any* command to bank `i` can change its
    /// state — the bank state machine's next possible transition.
    ///
    /// * Bank precharged: the next transition is an ACT (gated by tRC/tRP).
    /// * Row open: the earliest of a column access (tRCD/tCCD) or a
    ///   precharge (tRAS / write recovery).
    ///
    /// The returned tick never moves backwards while the bank is idle, which
    /// is what lets an event-driven scheduler sleep until it without
    /// re-polling.  Note this is a *bank-local* bound; channel-wide
    /// constraints (bus occupancy, rank ACT-to-ACT spacing, refresh
    /// blocking) can push the real issue time later.
    ///
    /// The select between the two cases is branchless: `open` is widened to
    /// an all-ones/all-zeros mask so the reduce over a whole channel never
    /// takes a data-dependent branch.
    #[must_use]
    pub fn next_transition_at(&self, i: usize) -> u64 {
        let mask = u64::from(self.open_row[i] != ROW_NONE).wrapping_neg();
        let open_bound = self.next_column[i].min(self.next_pre[i]);
        (open_bound & mask) | (self.next_act[i] & !mask)
    }

    /// Re-derives bank `i`'s `packed_transition` lane after its timing
    /// state moved.
    ///
    /// The `(tick, bank index)` pair packs into one `u64` — tick in the
    /// high `64 - INDEX_BITS` bits, index below — so the reduce is a
    /// packed argmin whose low bits break ties toward the lowest bank
    /// index.  Ticks are saturated at `2^48 - 1` before packing; real
    /// transition ticks sit many orders of magnitude below that bound (the
    /// livelock cap is tens of millions), so saturation never fires on a
    /// reachable schedule.
    fn refresh_packed(&mut self, i: usize) {
        let tick = self.next_transition_at(i);
        self.packed_transition[i] = (tick.min(TICK_CEIL) << INDEX_BITS) | i as u64;
    }

    /// The minimum of [`BankTimingTable::next_transition_at`] across every
    /// bank, or `u64::MAX` for an empty table.
    ///
    /// This is the channel-wide "something can happen next at" bound.  The
    /// mutators keep the packed `(tick, bank index)` lanes current, so the
    /// fold here streams one contiguous `u64` array with a single
    /// loop-carried `min` per bank — no select, no re-derivation — which
    /// is what the auto-vectorizer turns into the cheapest possible
    /// unsigned min-reduce.
    #[must_use]
    pub fn min_next_transition_at(&self) -> u64 {
        if self.packed_transition.is_empty() {
            return u64::MAX;
        }
        let mut packed_min = u64::MAX;
        for &packed in &self.packed_transition {
            packed_min = packed_min.min(packed);
        }
        packed_min >> INDEX_BITS
    }

    /// The minimum of [`BankTimingTable::next_transition_at`] across the
    /// contiguous bank range `[start, end)`, or `u64::MAX` for an empty
    /// range.
    ///
    /// The device's flat bank index is rank-major (rank `r`'s banks occupy
    /// `[r * banks_per_rank, (r + 1) * banks_per_rank)`), so this is the
    /// rank-local "something can happen next at" bound — the same packed
    /// argmin lane as the channel-wide reduce, folded over a subrange.
    #[must_use]
    pub fn min_next_transition_in(&self, start: usize, end: usize) -> u64 {
        let end = end.min(self.packed_transition.len());
        if start >= end {
            return u64::MAX;
        }
        let mut packed_min = u64::MAX;
        for &packed in &self.packed_transition[start..end] {
            packed_min = packed_min.min(packed);
        }
        packed_min >> INDEX_BITS
    }

    /// Checks whether activating a row of bank `i` at `now` is legal.
    ///
    /// # Errors
    ///
    /// Returns [`IssueError::IllegalState`] when a row is already open and
    /// [`IssueError::TooEarly`] when tRC/tRP have not elapsed.
    pub fn can_activate(&self, i: usize, now: u64) -> Result<(), IssueError> {
        if self.open_row[i] != ROW_NONE {
            return Err(IssueError::IllegalState {
                reason: "activate issued while another row is open",
            });
        }
        if now < self.next_act[i] {
            return Err(IssueError::TooEarly {
                ready_at: self.next_act[i],
            });
        }
        Ok(())
    }

    /// Opens `row` in bank `i` at `now`, arming the tRAS/tRCD/tRC windows.
    ///
    /// Timing state only — the caller pairs this with
    /// [`BankMeta::note_activation`] for the PRAC side.
    ///
    /// # Errors
    ///
    /// Propagates the legality checks of [`BankTimingTable::can_activate`].
    pub fn activate(
        &mut self,
        i: usize,
        row: RowIndex,
        now: u64,
        timing: &DramTimingParams,
    ) -> Result<(), IssueError> {
        self.can_activate(i, now)?;
        self.open_row[i] = row;
        self.next_pre[i] = now + timing.t_ras;
        self.next_column[i] = now + timing.t_rcd;
        self.next_act[i] = now + timing.t_rc;
        self.refresh_packed(i);
        Ok(())
    }

    /// Checks whether a precharge of bank `i` at `now` is legal.
    ///
    /// # Errors
    ///
    /// Returns [`IssueError::TooEarly`] when tRAS (or read/write recovery)
    /// has not elapsed. Precharging an already-closed bank is a no-op and is
    /// allowed.
    pub fn can_precharge(&self, i: usize, now: u64) -> Result<(), IssueError> {
        if self.open_row[i] == ROW_NONE {
            return Ok(());
        }
        if now < self.next_pre[i] {
            return Err(IssueError::TooEarly {
                ready_at: self.next_pre[i],
            });
        }
        Ok(())
    }

    /// Precharges (closes) bank `i` at `now`.
    ///
    /// # Errors
    ///
    /// Propagates [`BankTimingTable::can_precharge`].
    pub fn precharge(
        &mut self,
        i: usize,
        now: u64,
        timing: &DramTimingParams,
    ) -> Result<(), IssueError> {
        self.can_precharge(i, now)?;
        if self.open_row[i] != ROW_NONE {
            self.open_row[i] = ROW_NONE;
            self.next_act[i] = self.next_act[i].max(now + timing.t_rp);
            self.refresh_packed(i);
        }
        Ok(())
    }

    /// Checks whether a column read/write of `row` in bank `i` at `now` is
    /// legal.
    ///
    /// # Errors
    ///
    /// Returns [`IssueError::IllegalState`] when the addressed row is not the
    /// open row, and [`IssueError::TooEarly`] before tRCD/tCCD elapse.
    pub fn can_access_column(&self, i: usize, row: RowIndex, now: u64) -> Result<(), IssueError> {
        match self.open_row[i] {
            open if open == row && open != ROW_NONE => {}
            ROW_NONE => {
                return Err(IssueError::IllegalState {
                    reason: "column access while the bank is precharged",
                })
            }
            _ => {
                return Err(IssueError::IllegalState {
                    reason: "column access to a row that is not the open row",
                })
            }
        }
        if now < self.next_column[i] {
            return Err(IssueError::TooEarly {
                ready_at: self.next_column[i],
            });
        }
        Ok(())
    }

    /// Performs a column read in bank `i` at `now`; returns the tick at
    /// which data has fully returned.
    ///
    /// # Errors
    ///
    /// Propagates [`BankTimingTable::can_access_column`].
    pub fn read(
        &mut self,
        i: usize,
        row: RowIndex,
        now: u64,
        timing: &DramTimingParams,
    ) -> Result<u64, IssueError> {
        self.can_access_column(i, row, now)?;
        self.next_column[i] = now + timing.t_ccd;
        self.next_pre[i] = self.next_pre[i].max(now + timing.t_rtp);
        self.refresh_packed(i);
        Ok(now + timing.read_latency())
    }

    /// Performs a column write in bank `i` at `now`; returns the tick at
    /// which the write has been accepted (write data fully transferred).
    ///
    /// # Errors
    ///
    /// Propagates [`BankTimingTable::can_access_column`].
    pub fn write(
        &mut self,
        i: usize,
        row: RowIndex,
        now: u64,
        timing: &DramTimingParams,
    ) -> Result<u64, IssueError> {
        self.can_access_column(i, row, now)?;
        self.next_column[i] = now + timing.t_ccd;
        self.next_pre[i] = self.next_pre[i].max(now + timing.t_cl + timing.t_bl + timing.t_wr);
        self.refresh_packed(i);
        Ok(now + timing.t_cl + timing.t_bl)
    }

    /// Applies a channel-wide blocking command (refresh or RFM) to bank
    /// `i`: the bank is precharged immediately and no command may be issued
    /// before `now + duration`.
    pub fn block_until(&mut self, i: usize, now: u64, duration: u64) {
        self.open_row[i] = ROW_NONE;
        let until = now + duration;
        self.next_act[i] = self.next_act[i].max(until);
        self.next_pre[i] = self.next_pre[i].max(until);
        self.next_column[i] = self.next_column[i].max(until);
        self.refresh_packed(i);
    }

    /// Applies [`BankTimingTable::block_until`] to every bank at once.
    pub fn block_all_until(&mut self, now: u64, duration: u64) {
        for i in 0..self.open_row.len() {
            self.block_until(i, now, duration);
        }
    }

    /// Applies [`BankTimingTable::block_until`] to the contiguous bank range
    /// `[start, end)` — the rank-local blocking primitive used by staggered
    /// refresh, where each rank's blackout starts at its own offset.
    pub fn block_range_until(&mut self, start: usize, end: usize, now: u64, duration: u64) {
        for i in start..end.min(self.open_row.len()) {
            self.block_until(i, now, duration);
        }
    }
}

/// Cold per-bank state: PRAC activation counters and the in-DRAM
/// mitigation queue, plus the activation tallies derived from them.
#[derive(Debug, Clone)]
pub struct BankMeta {
    /// Per-row PRAC activation counters (sparse; untouched rows are zero).
    counters: HashMap<RowIndex, u32>,
    /// In-DRAM mitigation queue for this bank.
    queue: Box<dyn MitigationQueue>,
    /// Number of activations since the bank was last mitigated or reset
    /// (used for ACB-RFM / BAT accounting by the controller via a getter).
    activations_since_rfm: u32,
    /// Lifetime activation count (statistics).
    total_activations: u64,
}

impl BankMeta {
    /// Creates the cold state for one bank with the chosen queue design.
    #[must_use]
    pub fn new(queue_kind: QueueKind) -> Self {
        Self {
            counters: HashMap::new(),
            queue: queue_kind.instantiate(),
            activations_since_rfm: 0,
            total_activations: 0,
        }
    }

    /// Records an activation of `row`: increments its PRAC counter, shows
    /// the new value to the mitigation queue and bumps the activation
    /// tallies.  Returns the row's new counter value.
    ///
    /// PRAC: the per-row counter is incremented (physically during the
    /// precharge read-modify-write; counted here at activation time, which
    /// is equivalent for threshold-crossing purposes).
    pub fn note_activation(&mut self, row: RowIndex) -> u32 {
        let counter = self.counters.entry(row).or_insert(0);
        *counter = counter.saturating_add(1);
        let value = *counter;
        self.queue.observe_activation(row, value);
        self.activations_since_rfm = self.activations_since_rfm.saturating_add(1);
        self.total_activations += 1;
        value
    }

    /// The PRAC counter value of `row`.
    #[must_use]
    pub fn counter(&self, row: RowIndex) -> u32 {
        self.counters.get(&row).copied().unwrap_or(0)
    }

    /// The maximum PRAC counter value across all rows of this bank.
    #[must_use]
    pub fn max_counter(&self) -> u32 {
        self.counters.values().copied().max().unwrap_or(0)
    }

    /// Row currently nominated by the mitigation queue, if any.
    #[must_use]
    pub fn queue_head(&self) -> Option<RowIndex> {
        self.queue.peek()
    }

    /// Activations performed since the last RFM that reached this bank.
    #[must_use]
    pub fn activations_since_rfm(&self) -> u32 {
        self.activations_since_rfm
    }

    /// Lifetime activation count.
    #[must_use]
    pub fn total_activations(&self) -> u64 {
        self.total_activations
    }

    /// Mitigates the row nominated by the mitigation queue (if any),
    /// resetting its PRAC counter.  Returns the mitigated row.
    ///
    /// Called by the device when an RFM or a Targeted Refresh reaches the
    /// bank.  Also clears the per-bank ACB activation count.
    pub fn mitigate_queue_head(&mut self) -> Option<RowIndex> {
        let row = self.queue.pop_for_mitigation();
        if let Some(row) = row {
            self.counters.insert(row, 0);
        }
        self.activations_since_rfm = 0;
        row
    }

    /// Resets all PRAC counters and the mitigation queue (counter reset at
    /// tREFW).
    pub fn reset_counters(&mut self) {
        self.counters.clear();
        self.queue.reset();
    }

    /// Number of distinct rows with a non-zero PRAC counter.
    #[must_use]
    pub fn tracked_rows(&self) -> usize {
        self.counters.values().filter(|&&c| c > 0).count()
    }
}

/// Read-only view of one bank: its slot in the shared timing table plus its
/// cold state.  This is what [`crate::device::DramDevice::bank`] hands out;
/// it exposes the same accessors the old per-bank struct did.
#[derive(Debug, Clone, Copy)]
pub struct BankRef<'a> {
    timings: &'a BankTimingTable,
    index: usize,
    meta: &'a BankMeta,
}

impl<'a> BankRef<'a> {
    /// Builds the view for bank `index` of `timings`.
    #[must_use]
    pub fn new(timings: &'a BankTimingTable, index: usize, meta: &'a BankMeta) -> Self {
        Self {
            timings,
            index,
            meta,
        }
    }

    /// The currently open row, if the bank is active.
    #[must_use]
    pub fn open_row(&self) -> Option<u32> {
        self.timings.open_row(self.index)
    }

    /// The PRAC counter value of `row`.
    #[must_use]
    pub fn counter(&self, row: RowIndex) -> u32 {
        self.meta.counter(row)
    }

    /// The maximum PRAC counter value across all rows of this bank.
    #[must_use]
    pub fn max_counter(&self) -> u32 {
        self.meta.max_counter()
    }

    /// Row currently nominated by the mitigation queue, if any.
    #[must_use]
    pub fn queue_head(&self) -> Option<RowIndex> {
        self.meta.queue_head()
    }

    /// Activations performed since the last RFM that reached this bank.
    #[must_use]
    pub fn activations_since_rfm(&self) -> u32 {
        self.meta.activations_since_rfm()
    }

    /// Lifetime activation count.
    #[must_use]
    pub fn total_activations(&self) -> u64 {
        self.meta.total_activations()
    }

    /// Earliest tick at which an ACT to this bank is legal.
    #[must_use]
    pub fn act_ready_at(&self) -> u64 {
        self.timings.act_ready_at(self.index)
    }

    /// Earliest tick at which *any* command to this bank can change its
    /// state (see [`BankTimingTable::next_transition_at`]).
    #[must_use]
    pub fn next_transition_at(&self) -> u64 {
        self.timings.next_transition_at(self.index)
    }

    /// Number of distinct rows with a non-zero PRAC counter.
    #[must_use]
    pub fn tracked_rows(&self) -> usize {
        self.meta.tracked_rows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> DramTimingParams {
        DramTimingParams::ddr5_8000b()
    }

    /// One bank as the device runs it: slot 0 of a one-entry timing table
    /// plus its cold state.
    fn bank() -> (BankTimingTable, BankMeta) {
        (
            BankTimingTable::new(1),
            BankMeta::new(QueueKind::SingleEntryFrequency),
        )
    }

    /// Activates `row` the way the device does: the timing check and update
    /// first, then the PRAC side.  Returns the row's new counter value.
    fn activate(
        table: &mut BankTimingTable,
        meta: &mut BankMeta,
        row: RowIndex,
        now: u64,
        t: &DramTimingParams,
    ) -> Result<u32, IssueError> {
        table.activate(0, row, now, t)?;
        Ok(meta.note_activation(row))
    }

    #[test]
    fn activate_opens_row_and_increments_counter() {
        let (mut table, mut meta) = bank();
        let count = activate(&mut table, &mut meta, 5, 0, &timing()).unwrap();
        assert_eq!(count, 1);
        assert_eq!(table.open_row(0), Some(5));
        assert_eq!(meta.counter(5), 1);
        assert_eq!(meta.queue_head(), Some(5));
    }

    #[test]
    fn double_activate_is_illegal() {
        let (mut table, mut meta) = bank();
        activate(&mut table, &mut meta, 5, 0, &timing()).unwrap();
        let err = activate(&mut table, &mut meta, 6, 1_000, &timing()).unwrap_err();
        assert!(matches!(err, IssueError::IllegalState { .. }));
    }

    #[test]
    fn activate_respects_trc() {
        let t = timing();
        let (mut table, mut meta) = bank();
        activate(&mut table, &mut meta, 1, 0, &t).unwrap();
        table.precharge(0, t.t_ras, &t).unwrap();
        // tRC (208 ticks) not yet elapsed at tRAS + tRP = 64 + 144 = 208... it
        // is exactly equal, so issuing just before must fail.
        let err = activate(&mut table, &mut meta, 2, t.t_ras + t.t_rp - 1, &t).unwrap_err();
        assert!(matches!(err, IssueError::TooEarly { .. }));
        assert!(activate(&mut table, &mut meta, 2, t.t_rc, &t).is_ok());
    }

    #[test]
    fn precharge_respects_tras() {
        let t = timing();
        let (mut table, mut meta) = bank();
        activate(&mut table, &mut meta, 1, 100, &t).unwrap();
        let err = table.precharge(0, 100 + t.t_ras - 1, &t).unwrap_err();
        assert!(matches!(err, IssueError::TooEarly { ready_at } if ready_at == 100 + t.t_ras));
        assert!(table.precharge(0, 100 + t.t_ras, &t).is_ok());
        assert_eq!(table.open_row(0), None);
    }

    #[test]
    fn precharging_closed_bank_is_noop() {
        let t = timing();
        let (mut table, _) = bank();
        assert!(table.precharge(0, 0, &t).is_ok());
        assert_eq!(table.open_row(0), None);
    }

    #[test]
    fn read_requires_matching_open_row() {
        let t = timing();
        let (mut table, mut meta) = bank();
        assert!(matches!(
            table.read(0, 3, 0, &t).unwrap_err(),
            IssueError::IllegalState { .. }
        ));
        activate(&mut table, &mut meta, 3, 0, &t).unwrap();
        assert!(matches!(
            table.read(0, 4, t.t_rcd, &t).unwrap_err(),
            IssueError::IllegalState { .. }
        ));
    }

    #[test]
    fn read_respects_trcd_and_returns_data_time() {
        let t = timing();
        let (mut table, mut meta) = bank();
        activate(&mut table, &mut meta, 3, 0, &t).unwrap();
        assert!(matches!(
            table.read(0, 3, t.t_rcd - 1, &t).unwrap_err(),
            IssueError::TooEarly { .. }
        ));
        let done = table.read(0, 3, t.t_rcd, &t).unwrap();
        assert_eq!(done, t.t_rcd + t.read_latency());
    }

    #[test]
    fn write_extends_precharge_window() {
        let t = timing();
        let (mut table, mut meta) = bank();
        activate(&mut table, &mut meta, 3, 0, &t).unwrap();
        table.write(0, 3, t.t_rcd, &t).unwrap();
        // Precharge must wait for write recovery: tRCD + tCL + tBL + tWR.
        let earliest = t.t_rcd + t.t_cl + t.t_bl + t.t_wr;
        assert!(matches!(
            table.precharge(0, earliest - 1, &t).unwrap_err(),
            IssueError::TooEarly { .. }
        ));
        assert!(table.precharge(0, earliest, &t).is_ok());
    }

    #[test]
    fn consecutive_column_accesses_respect_tccd() {
        let t = timing();
        let (mut table, mut meta) = bank();
        activate(&mut table, &mut meta, 3, 0, &t).unwrap();
        table.read(0, 3, t.t_rcd, &t).unwrap();
        assert!(matches!(
            table.read(0, 3, t.t_rcd + 1, &t).unwrap_err(),
            IssueError::TooEarly { .. }
        ));
        assert!(table.read(0, 3, t.t_rcd + t.t_ccd, &t).is_ok());
    }

    #[test]
    fn counters_accumulate_across_activations() {
        let t = timing();
        let (mut table, mut meta) = bank();
        let mut now = 0;
        for i in 0..10 {
            let count = activate(&mut table, &mut meta, 7, now, &t).unwrap();
            assert_eq!(count, i + 1);
            now += t.t_ras;
            table.precharge(0, now, &t).unwrap();
            now += t.t_rp.max(t.t_rc - t.t_ras);
        }
        assert_eq!(meta.counter(7), 10);
        assert_eq!(meta.total_activations(), 10);
    }

    #[test]
    fn mitigation_resets_counter_of_queue_head() {
        let t = timing();
        let (mut table, mut meta) = bank();
        let mut now = 0;
        for row in [1u32, 1, 1, 2] {
            activate(&mut table, &mut meta, row, now, &t).unwrap();
            now += t.t_ras;
            table.precharge(0, now, &t).unwrap();
            now += t.t_rc;
        }
        // Row 1 has 3 activations and is the queue head.
        assert_eq!(meta.queue_head(), Some(1));
        let mitigated = meta.mitigate_queue_head();
        assert_eq!(mitigated, Some(1));
        assert_eq!(meta.counter(1), 0);
        assert_eq!(meta.counter(2), 1);
        assert_eq!(meta.activations_since_rfm(), 0);
    }

    #[test]
    fn reset_clears_counters_and_queue() {
        let t = timing();
        let (mut table, mut meta) = bank();
        activate(&mut table, &mut meta, 9, 0, &t).unwrap();
        meta.reset_counters();
        assert_eq!(meta.counter(9), 0);
        assert_eq!(meta.queue_head(), None);
        assert_eq!(meta.tracked_rows(), 0);
    }

    #[test]
    fn block_until_closes_row_and_defers_commands() {
        let t = timing();
        let (mut table, mut meta) = bank();
        activate(&mut table, &mut meta, 1, 0, &t).unwrap();
        table.block_until(0, 10, 1_400);
        assert_eq!(table.open_row(0), None);
        assert!(matches!(
            activate(&mut table, &mut meta, 2, 1_000, &t).unwrap_err(),
            IssueError::TooEarly { ready_at } if ready_at >= 1_410
        ));
        assert!(activate(&mut table, &mut meta, 2, 1_410, &t).is_ok());
    }

    #[test]
    fn branchless_transition_matches_state_machine() {
        let t = timing();
        let mut table = BankTimingTable::new(4);
        // Bank 0 precharged, bank 1 open, bank 2 blocked, bank 3 idle.
        table.activate(1, 7, 0, &t).unwrap();
        table.block_until(2, 0, 1_000);
        assert_eq!(table.next_transition_at(0), 0);
        assert_eq!(table.next_transition_at(1), t.t_rcd.min(t.t_ras));
        assert_eq!(table.next_transition_at(2), 1_000);
        let expected = (0..table.len()).map(|i| table.next_transition_at(i)).min();
        assert_eq!(table.min_next_transition_at(), expected.unwrap());
        assert_eq!(table.min_next_transition_at(), 0);
    }

    #[test]
    fn min_reduce_of_empty_table_is_max() {
        let table = BankTimingTable::new(0);
        assert!(table.is_empty());
        assert_eq!(table.min_next_transition_at(), u64::MAX);
    }

    #[test]
    fn subrange_min_reduce_matches_per_bank_fold() {
        let t = timing();
        let mut table = BankTimingTable::new(8);
        table.activate(1, 7, 0, &t).unwrap();
        table.block_until(2, 0, 1_000);
        table.activate(5, 3, 10, &t).unwrap();
        table.block_until(6, 0, 2_500);
        for (start, end) in [(0usize, 4usize), (4, 8), (2, 7), (0, 8), (3, 3)] {
            let expected = (start..end)
                .map(|i| table.next_transition_at(i))
                .min()
                .unwrap_or(u64::MAX);
            assert_eq!(
                table.min_next_transition_in(start, end),
                expected,
                "subrange [{start}, {end})"
            );
        }
        // The full-range fold agrees with the channel-wide reduce.
        assert_eq!(
            table.min_next_transition_in(0, table.len()),
            table.min_next_transition_at()
        );
    }

    #[test]
    fn block_range_only_touches_the_range() {
        let t = timing();
        let mut table = BankTimingTable::new(4);
        table.block_range_until(2, 4, 0, 1_000);
        assert_eq!(table.next_transition_at(0), 0);
        assert_eq!(table.next_transition_at(1), 0);
        assert_eq!(table.next_transition_at(2), 1_000);
        assert_eq!(table.next_transition_at(3), 1_000);
        assert!(table.can_activate(0, 0).is_ok());
        assert!(matches!(
            table.can_activate(3, 500),
            Err(IssueError::TooEarly { ready_at: 1_000 })
        ));
        let _ = t;
    }
}
