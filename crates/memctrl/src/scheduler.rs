//! First-Ready First-Come-First-Served (FR-FCFS) scheduling with a cap on
//! consecutive row-buffer hits.
//!
//! FR-FCFS prioritises requests whose target row is already open (row-buffer
//! hits) because they can be serviced with a single column command; among
//! equally-ready requests the oldest wins.  Uncapped FR-FCFS can starve
//! row-miss requests, so — following the paper's configuration ("FR-FCFS with
//! a cap of 4") — after `cap` consecutive hits to the same bank the scheduler
//! falls back to the oldest request.
//!
//! The controller never rescans its queue.  It keeps an [`FrFcfsIndex`]
//! beside it, updated by exactly the events that change the choice: an
//! enqueue, a column command (the request leaves the candidates), a
//! completion's `swap_remove` (a position is renumbered), and the commands
//! that open or close rows (ACT, PRE, REF, RFM, PREA).  The index holds an
//! age order of the unissued queue positions and a row-hit mask, so
//! [`FrFcfsScheduler::choose`] reads the oldest hit off the set mask bits
//! and the oldest request off the head of the age order.
//! [`FrFcfsScheduler::choose_from`] over [`SchedulerCandidate`]s is the
//! reference both must agree with; the controller `debug_assert`s that
//! agreement on every choice it uses.

use dram_sim::org::DramAddress;
use serde::{Deserialize, Serialize};

/// Most requests a controller queue (and so an [`FrFcfsIndex`]) holds: one
/// bit per queue position in a `u64` mask.
pub const QUEUE_CAPACITY: usize = 64;

/// A candidate visible to the scheduler: its queue slot, decoded address and
/// whether the target row is currently open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerCandidate {
    /// Index of the request in the controller's pending queue.
    pub queue_index: usize,
    /// Decoded DRAM coordinate of the request.
    pub address: DramAddress,
    /// Whether the bank currently has this row open (row-buffer hit).
    pub row_hit: bool,
    /// Arrival tick (for FCFS ordering).
    pub arrival_tick: u64,
}

/// What the index knows of the request at one queue position.
#[derive(Debug, Clone, Copy)]
struct Lane {
    arrival_tick: u64,
    bank: u32,
    row: u32,
}

/// The FR-FCFS candidates of a controller queue, kept up to date event by
/// event instead of rescanned.
///
/// Position `i` is the request at queue position `i`; the caller mirrors
/// every queue change and every row open or close into the index.  A
/// request is a candidate from [`FrFcfsIndex::push`] until
/// [`FrFcfsIndex::column_issued`]; only issued requests leave the queue
/// through [`FrFcfsIndex::swap_remove`].
#[derive(Debug, Clone)]
pub struct FrFcfsIndex {
    lanes: Vec<Lane>,
    /// Unissued positions, sorted by `(arrival_tick, position)`.
    age: Vec<u8>,
    /// Per flat bank: the unissued positions that target it.
    bank_lanes: Vec<u64>,
    /// The unissued positions whose row is open in their bank.
    hits: u64,
}

impl FrFcfsIndex {
    /// An empty index over a device with `banks` flat banks.
    #[must_use]
    pub fn new(banks: u32) -> Self {
        Self {
            lanes: Vec::with_capacity(QUEUE_CAPACITY),
            age: Vec::with_capacity(QUEUE_CAPACITY),
            bank_lanes: vec![0; banks as usize],
            hits: 0,
        }
    }

    /// Appends a request at the next queue position; `row_hit` says whether
    /// its row is open in `bank` right now.
    ///
    /// # Panics
    ///
    /// Panics when the queue already holds [`QUEUE_CAPACITY`] requests.
    pub fn push(&mut self, arrival_tick: u64, bank: u32, row: u32, row_hit: bool) {
        let position = self.lanes.len();
        assert!(position < QUEUE_CAPACITY, "FR-FCFS index is full");
        self.lanes.push(Lane {
            arrival_tick,
            bank,
            row,
        });
        let bit = 1u64 << position;
        self.bank_lanes[bank as usize] |= bit;
        if row_hit {
            self.hits |= bit;
        }
        // The new position is the largest, so it goes after every request
        // that arrived no later; requests arrive in order, so this walk
        // usually stops at once.
        let mut at = self.age.len();
        while at > 0 && self.lanes[usize::from(self.age[at - 1])].arrival_tick > arrival_tick {
            at -= 1;
        }
        self.age.insert(at, position as u8);
    }

    /// The request at `position` had its column command issued: it is no
    /// longer a candidate.
    pub fn column_issued(&mut self, position: usize) {
        let bit = 1u64 << position;
        self.bank_lanes[self.lanes[position].bank as usize] &= !bit;
        self.hits &= !bit;
        let at = self
            .age
            .iter()
            .position(|&p| usize::from(p) == position)
            .expect("an issued request was a candidate");
        self.age.remove(at);
    }

    /// `bank` opened `row`: its requests to that row become hits.
    pub fn activated(&mut self, bank: u32, row: u32) {
        let mut lanes = self.bank_lanes[bank as usize];
        while lanes != 0 {
            let position = lanes.trailing_zeros() as usize;
            lanes &= lanes - 1;
            if self.lanes[position].row == row {
                self.hits |= 1 << position;
            }
        }
    }

    /// `bank` closed its row: none of its requests is a hit.
    pub fn precharged(&mut self, bank: u32) {
        self.hits &= !self.bank_lanes[bank as usize];
    }

    /// Every bank closed its row (refresh, RFM, precharge-all).
    pub fn closed_all(&mut self) {
        self.hits = 0;
    }

    /// The issued request at `position` left the queue by `swap_remove`:
    /// the last request moves to `position`, and among requests that
    /// arrived at the same tick its new, lower position may now come first.
    pub fn swap_remove(&mut self, position: usize) {
        debug_assert!(
            self.age.iter().all(|&p| usize::from(p) != position),
            "only issued requests leave the queue"
        );
        let last = self.lanes.len() - 1;
        self.lanes.swap_remove(position);
        if position == last {
            return;
        }
        let (from, to) = (1u64 << last, 1u64 << position);
        let Lane {
            arrival_tick, bank, ..
        } = self.lanes[position];
        let bank_lanes = &mut self.bank_lanes[bank as usize];
        if *bank_lanes & from == 0 {
            return; // the moved request was issued too
        }
        *bank_lanes ^= from | to;
        if self.hits & from != 0 {
            self.hits ^= from | to;
        }
        let mut at = self
            .age
            .iter()
            .position(|&p| usize::from(p) == last)
            .expect("an unissued request is in the age order");
        while at > 0 {
            let before = usize::from(self.age[at - 1]);
            if before < position || self.lanes[before].arrival_tick != arrival_tick {
                break;
            }
            self.age[at] = self.age[at - 1];
            at -= 1;
        }
        self.age[at] = position as u8;
    }

    /// The oldest candidate: the first minimum of `(arrival_tick,
    /// position)`.
    fn oldest(&self) -> Option<usize> {
        self.age.first().map(|&p| usize::from(p))
    }

    /// The oldest row hit: the first minimum of `(arrival_tick, position)`
    /// over the set hit bits, visited in position order.
    fn oldest_hit(&self) -> Option<usize> {
        let mut hits = self.hits;
        let mut oldest: Option<(u64, usize)> = None;
        while hits != 0 {
            let position = hits.trailing_zeros() as usize;
            hits &= hits - 1;
            let arrival_tick = self.lanes[position].arrival_tick;
            if oldest.is_none_or(|(tick, _)| arrival_tick < tick) {
                oldest = Some((arrival_tick, position));
            }
        }
        oldest.map(|(_, position)| position)
    }
}

/// FR-FCFS scheduler state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FrFcfsScheduler {
    cap: u32,
    consecutive_hits: u32,
    last_hit_bank: Option<u32>,
}

impl FrFcfsScheduler {
    /// Creates a scheduler with the given row-hit cap (0 disables capping).
    #[must_use]
    pub fn new(cap: u32) -> Self {
        Self {
            cap,
            consecutive_hits: 0,
            last_hit_bank: None,
        }
    }

    /// The paper's configuration: FR-FCFS with a cap of 4.
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(4)
    }

    /// Chooses the next request to service from `candidates`, without
    /// touching the hit-streak state.  Returns `None` when there are no
    /// candidates.
    ///
    /// The choice is a pure function of the candidates and the current
    /// streak: the controller may call this speculatively every cycle (or ask
    /// "what would be scheduled next?" when computing its next wake-up event)
    /// and must call [`FrFcfsScheduler::note_scheduled`] only once a command
    /// for the chosen request was actually accepted by the device.
    ///
    /// One pass, no intermediate list: callers stream candidates through an
    /// iterator instead of collecting a `Vec<SchedulerCandidate>`.  Tracks
    /// the oldest candidate and the oldest row hit simultaneously; ties on
    /// `arrival_tick` go to the lower `queue_index`, which is unique.
    #[must_use]
    pub fn choose_from<I>(&self, candidates: I) -> Option<SchedulerCandidate>
    where
        I: IntoIterator<Item = SchedulerCandidate>,
    {
        let mut oldest: Option<SchedulerCandidate> = None;
        let mut oldest_hit: Option<SchedulerCandidate> = None;
        for c in candidates {
            let key = (c.arrival_tick, c.queue_index);
            if oldest.is_none_or(|b| key < (b.arrival_tick, b.queue_index)) {
                oldest = Some(c);
            }
            if c.row_hit && oldest_hit.is_none_or(|b| key < (b.arrival_tick, b.queue_index)) {
                oldest_hit = Some(c);
            }
        }
        let oldest = oldest?;
        let oldest_hit_allowed = self.cap == 0 || self.consecutive_hits < self.cap;
        Some(if oldest_hit_allowed {
            // Prefer the oldest row hit, else the oldest request overall.
            oldest_hit.unwrap_or(oldest)
        } else {
            // Cap reached: force the oldest request regardless of hit status.
            oldest
        })
    }

    /// [`FrFcfsScheduler::choose_from`] over the controller's index: returns
    /// the queue position of the chosen request.  The oldest row hit when
    /// the streak allows one, else the oldest request; the index breaks ties
    /// on `arrival_tick` by queue position, exactly as `choose_from` does.
    #[must_use]
    pub fn choose(&self, index: &FrFcfsIndex) -> Option<usize> {
        let hits_allowed = self.cap == 0 || self.consecutive_hits < self.cap;
        if hits_allowed {
            if let Some(hit) = index.oldest_hit() {
                return Some(hit);
            }
        }
        index.oldest()
    }

    /// Records that a command for the chosen candidate was accepted by the
    /// device, updating the consecutive-hit streak.  The streak counts
    /// *serviced* scheduling decisions, so attempts rejected by DRAM timing
    /// must not be reported here.
    pub fn note_scheduled(&mut self, bank: u32, row_hit: bool) {
        if row_hit && self.last_hit_bank == Some(bank) {
            self.consecutive_hits += 1;
        } else if row_hit {
            self.consecutive_hits = 1;
            self.last_hit_bank = Some(bank);
        } else {
            self.consecutive_hits = 0;
            self.last_hit_bank = None;
        }
    }

    /// Number of consecutive row hits scheduled to the same bank so far.
    #[must_use]
    pub fn consecutive_hits(&self) -> u32 {
        self.consecutive_hits
    }
}

impl Default for FrFcfsScheduler {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::org::DramOrganization;
    use proptest::collection;
    use proptest::prelude::*;

    fn candidate(
        queue_index: usize,
        bank: u32,
        row: u32,
        row_hit: bool,
        arrival: u64,
    ) -> SchedulerCandidate {
        let org = DramOrganization::tiny_for_tests();
        SchedulerCandidate {
            queue_index,
            address: DramAddress::new(&org, 0, bank % org.bank_groups, 0, row, 0),
            row_hit,
            arrival_tick: arrival,
        }
    }

    fn flat(addr: &DramAddress) -> u32 {
        DramOrganization::tiny_for_tests().flat_bank_index(addr.rank, addr.bank_group, addr.bank)
    }

    /// The queue index `choose_from` picks from `candidates`.
    fn pick(s: &FrFcfsScheduler, candidates: &[SchedulerCandidate]) -> Option<usize> {
        s.choose_from(candidates.iter().copied())
            .map(|c| c.queue_index)
    }

    /// Chooses and commits, the way the controller does when the device
    /// accepts the command for the chosen candidate.
    fn choose_and_commit(
        s: &mut FrFcfsScheduler,
        candidates: &[SchedulerCandidate],
    ) -> Option<usize> {
        let chosen = s.choose_from(candidates.iter().copied())?;
        s.note_scheduled(flat(&chosen.address), chosen.row_hit);
        Some(chosen.queue_index)
    }

    #[test]
    fn empty_candidates_yield_none() {
        let mut s = FrFcfsScheduler::paper_default();
        assert_eq!(choose_and_commit(&mut s, &[]), None);
    }

    #[test]
    fn row_hits_win_over_older_misses() {
        let mut s = FrFcfsScheduler::paper_default();
        let c = vec![candidate(0, 0, 1, false, 10), candidate(1, 1, 2, true, 20)];
        assert_eq!(choose_and_commit(&mut s, &c), Some(1));
    }

    #[test]
    fn oldest_wins_among_misses() {
        let mut s = FrFcfsScheduler::paper_default();
        let c = vec![candidate(0, 0, 1, false, 30), candidate(1, 1, 2, false, 10)];
        assert_eq!(choose_and_commit(&mut s, &c), Some(1));
    }

    #[test]
    fn oldest_wins_among_hits() {
        let mut s = FrFcfsScheduler::paper_default();
        let c = vec![candidate(0, 0, 1, true, 30), candidate(1, 0, 1, true, 10)];
        assert_eq!(choose_and_commit(&mut s, &c), Some(1));
    }

    #[test]
    fn cap_forces_oldest_after_four_hits() {
        let mut s = FrFcfsScheduler::new(4);
        let hits = vec![candidate(0, 0, 1, true, 100)];
        for _ in 0..4 {
            assert_eq!(choose_and_commit(&mut s, &hits), Some(0));
        }
        assert_eq!(s.consecutive_hits(), 4);
        // Now an older miss must win even though a hit exists.
        let mixed = vec![candidate(0, 0, 1, true, 100), candidate(1, 1, 2, false, 50)];
        assert_eq!(choose_and_commit(&mut s, &mixed), Some(1));
        // Counter resets after servicing a miss.
        assert_eq!(s.consecutive_hits(), 0);
    }

    #[test]
    fn cap_zero_never_forces_misses() {
        let mut s = FrFcfsScheduler::new(0);
        let mixed = vec![candidate(0, 0, 1, true, 100), candidate(1, 1, 2, false, 50)];
        for _ in 0..16 {
            assert_eq!(choose_and_commit(&mut s, &mixed), Some(0));
        }
    }

    #[test]
    fn choose_is_pure_and_note_commits_the_streak() {
        let mut s = FrFcfsScheduler::new(4);
        let hits = vec![candidate(0, 0, 1, true, 100)];
        // Choosing repeatedly (e.g. on cycles where the command is rejected
        // by DRAM timing) must not advance the streak.
        for _ in 0..10 {
            assert_eq!(pick(&s, &hits), Some(0));
        }
        assert_eq!(s.consecutive_hits(), 0);
        // Only the committed decisions count toward the cap.
        for serviced in 1..=4 {
            assert_eq!(pick(&s, &hits), Some(0));
            s.note_scheduled(flat(&hits[0].address), true);
            assert_eq!(s.consecutive_hits(), serviced);
        }
        let mixed = vec![candidate(0, 0, 1, true, 100), candidate(1, 1, 2, false, 50)];
        assert_eq!(pick(&s, &mixed), Some(1), "cap forces the oldest");
    }

    /// A request of the model queue the pick proptest keeps beside the
    /// index: what `choose_from` needs, plus whether it was issued.
    #[derive(Debug, Clone, Copy)]
    struct Queued {
        arrival_tick: u64,
        bank: u32,
        row: u32,
        issued: bool,
    }

    /// `choose_from` over the model queue's unissued requests, at their
    /// queue positions.
    fn reference_pick(s: &FrFcfsScheduler, queue: &[Queued], open_rows: &[u32]) -> Option<usize> {
        let org = DramOrganization::tiny_for_tests();
        let candidates = queue
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.issued)
            .map(|(i, q)| SchedulerCandidate {
                queue_index: i,
                address: DramAddress::new(&org, 0, 0, 0, q.row, 0),
                row_hit: open_rows[q.bank as usize] == q.row,
                arrival_tick: q.arrival_tick,
            });
        s.choose_from(candidates).map(|c| c.queue_index)
    }

    /// The `n % count`-th position of `queue` that passes `keep`, if any.
    fn nth_position(queue: &[Queued], n: u32, keep: impl Fn(&Queued) -> bool) -> Option<usize> {
        let count = queue.iter().filter(|q| keep(q)).count();
        (count > 0).then(|| {
            queue
                .iter()
                .enumerate()
                .filter(|(_, q)| keep(q))
                .nth(n as usize % count)
                .map(|(i, _)| i)
                .expect("in range")
        })
    }

    proptest! {
        /// The index pick the controller calls agrees with `choose_from`
        /// after every operation of a random sequence: enqueues (same-tick
        /// bursts and out-of-order ticks, up to a full queue), ACT, PRE,
        /// RD/WR issue, REF/RFM and completion removal at any position, for
        /// every streak from 0 to cap + 1, and cap 0.
        #[test]
        fn index_pick_matches_choose_from(
            ops in collection::vec((0u8..8, 0u32..64, 0u32..4, 0u64..6), 1..400),
            cap in 0u32..6,
        ) {
            use dram_sim::bank::ROW_NONE;
            const BANKS: u32 = 4;
            let mut index = FrFcfsIndex::new(BANKS);
            let mut queue: Vec<Queued> = Vec::new();
            let mut open_rows = vec![ROW_NONE; BANKS as usize];
            let mut now = 0u64;
            for (step, &(op, a, b, c)) in ops.iter().enumerate() {
                match op {
                    // Enqueue a burst of 1-4 requests arriving at one tick:
                    // usually now, sometimes earlier than requests already
                    // queued.
                    0..=2 => {
                        now += c % 3;
                        let tick = if c == 5 { now.saturating_sub(4) } else { now };
                        for i in 0..=b {
                            if queue.len() == QUEUE_CAPACITY {
                                break;
                            }
                            let (bank, row) = ((a + i) % BANKS, (a / 4 + i) % 3);
                            let hit = open_rows[bank as usize] == row;
                            index.push(tick, bank, row, hit);
                            queue.push(Queued { arrival_tick: tick, bank, row, issued: false });
                        }
                    }
                    // ACT: a closed bank opens a row.
                    3 => {
                        let bank = a % BANKS;
                        if open_rows[bank as usize] == ROW_NONE {
                            open_rows[bank as usize] = b % 3;
                            index.activated(bank, b % 3);
                        }
                    }
                    // PRE: a bank closes its row.
                    4 => {
                        let bank = a % BANKS;
                        open_rows[bank as usize] = ROW_NONE;
                        index.precharged(bank);
                    }
                    // RD/WR: a column command to some unissued row hit.
                    5 => {
                        let hit = |q: &Queued| !q.issued && open_rows[q.bank as usize] == q.row;
                        if let Some(position) = nth_position(&queue, a, hit) {
                            queue[position].issued = true;
                            index.column_issued(position);
                        }
                    }
                    // REF or RFM: every bank closes.
                    6 if b == 0 => {
                        open_rows.fill(ROW_NONE);
                        index.closed_all();
                    }
                    // A completion leaves the queue by `swap_remove`.
                    _ => {
                        if let Some(position) = nth_position(&queue, a, |q| q.issued) {
                            queue.swap_remove(position);
                            index.swap_remove(position);
                        }
                    }
                }
                for streak in 0..=cap + 1 {
                    let mut s = FrFcfsScheduler::new(cap);
                    for _ in 0..streak {
                        s.note_scheduled(0, true);
                    }
                    prop_assert_eq!(
                        s.choose(&index),
                        reference_pick(&s, &queue, &open_rows),
                        "cap {}, streak {}, after step {} {:?}, queue {:?}, open rows {:?}",
                        cap,
                        streak,
                        step,
                        (op, a, b, c),
                        queue,
                        open_rows
                    );
                }
            }
        }
    }

    #[test]
    fn hit_streak_tracks_bank_changes() {
        let mut s = FrFcfsScheduler::new(4);
        let bank_a = vec![candidate(0, 0, 1, true, 1)];
        let bank_b = vec![candidate(0, 1, 1, true, 1)];
        let _ = choose_and_commit(&mut s, &bank_a);
        let _ = choose_and_commit(&mut s, &bank_a);
        assert_eq!(s.consecutive_hits(), 2);
        // Switching banks restarts the streak.
        let _ = choose_and_commit(&mut s, &bank_b);
        assert_eq!(s.consecutive_hits(), 1);
    }
}
