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
//! The controller's hot path is [`FrFcfsScheduler::choose_lane`]: a pick
//! over one compact [`ScanLane`] per pending request, compared against the
//! device's raw open-row array.  [`FrFcfsScheduler::choose_from`] over
//! [`SchedulerCandidate`]s is the reference both must agree with; the
//! controller `debug_assert`s that agreement on every choice it uses.  The
//! choice is a pure function of the lanes (and their queue positions), the
//! open rows and the hit streak, which is what lets the controller cache it
//! until one of the three changes.

use dram_sim::org::DramAddress;
use serde::{Deserialize, Serialize};

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

/// The scheduler's view of one pending request, kept by the controller in
/// a `Vec` parallel to its pending queue: 16 bytes, so a 64-entry queue
/// scans in sixteen cache lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanLane {
    /// Arrival tick (for FCFS ordering).
    pub arrival_tick: u64,
    /// Flat index of the target bank, or [`ScanLane::ISSUED`] once the
    /// request's column command has been issued.
    pub bank: u32,
    /// Target row.
    pub row: u32,
}

impl ScanLane {
    /// The `bank` marker of a request that is in flight and no longer a
    /// scheduling candidate.
    pub const ISSUED: u32 = u32::MAX;

    /// Whether the request's column command has been issued.
    #[must_use]
    pub fn is_issued(&self) -> bool {
        self.bank == Self::ISSUED
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

    /// [`FrFcfsScheduler::choose_from`] over the controller's compact lanes:
    /// returns the queue position of the chosen request.
    ///
    /// Lane `i` is the request at queue position `i`; issued lanes are
    /// skipped, and a lane is a row hit when `open_rows[lane.bank]` (the
    /// device's raw open-row array, [`dram_sim::bank::ROW_NONE`] for a
    /// closed bank) equals its row.  Each class (row hits, then every
    /// unissued lane) is picked in two passes: a branch-free min-reduce of
    /// the arrival ticks, then the first lane in queue order holding that
    /// tick.  That is the first minimum of `(arrival_tick, queue position)`,
    /// exactly as `choose_from` breaks ties.
    #[must_use]
    pub fn choose_lane(&self, lanes: &[ScanLane], open_rows: &[u32]) -> Option<usize> {
        // `ScanLane::ISSUED` is out of range of any bank array, so an issued
        // lane is never a hit.
        let is_hit = |lane: &ScanLane| open_rows.get(lane.bank as usize) == Some(&lane.row);
        let hits_allowed = self.cap == 0 || self.consecutive_hits < self.cap;
        if hits_allowed {
            if let Some(hit) = first_oldest(lanes, is_hit) {
                return Some(hit);
            }
        }
        first_oldest(lanes, |lane| !lane.is_issued())
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

/// The position of the first lane in `lanes` that passes `keep` and has the
/// smallest arrival tick among those that do.
fn first_oldest(lanes: &[ScanLane], keep: impl Fn(&ScanLane) -> bool) -> Option<usize> {
    let oldest = lanes
        .iter()
        .map(|lane| {
            if keep(lane) {
                lane.arrival_tick
            } else {
                u64::MAX
            }
        })
        .min()?;
    lanes
        .iter()
        .position(|lane| lane.arrival_tick == oldest && keep(lane))
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

    /// `choose_from` over the candidates the controller would stream out of
    /// `lanes`: the unissued ones, at their queue positions.
    fn reference_pick(s: &FrFcfsScheduler, lanes: &[ScanLane], open_rows: &[u32]) -> Option<usize> {
        let org = DramOrganization::tiny_for_tests();
        let candidates = lanes
            .iter()
            .enumerate()
            .filter(|(_, lane)| !lane.is_issued())
            .map(|(i, lane)| SchedulerCandidate {
                queue_index: i,
                address: DramAddress::new(&org, 0, 0, 0, lane.row, 0),
                row_hit: open_rows[lane.bank as usize] == lane.row,
                arrival_tick: lane.arrival_tick,
            });
        s.choose_from(candidates).map(|c| c.queue_index)
    }

    #[test]
    fn lane_pick_keeps_the_first_minimum_on_ties() {
        use dram_sim::bank::ROW_NONE;
        let lane = |arrival_tick, bank, row| ScanLane {
            arrival_tick,
            bank,
            row,
        };
        let open_rows = [7, ROW_NONE];
        // Three equally old requests: two hits on bank 0, one miss on the
        // closed bank 1, and an issued lane that must be ignored.
        let lanes = [
            lane(3, 1, 7),
            lane(3, 0, 7),
            lane(1, ScanLane::ISSUED, 7),
            lane(3, 0, 7),
        ];
        let s = FrFcfsScheduler::new(4);
        assert_eq!(s.choose_lane(&lanes, &open_rows), Some(1), "first hit");
        let mut capped = FrFcfsScheduler::new(1);
        capped.note_scheduled(0, true);
        assert_eq!(
            capped.choose_lane(&lanes, &open_rows),
            Some(0),
            "first oldest"
        );
        assert_eq!(s.choose_lane(&lanes[2..3], &open_rows), None, "only issued");
    }

    proptest! {
        /// The lane pick the controller calls agrees with `choose_from` on
        /// random queues: arrival ties, issued lanes, positions renumbered by
        /// `swap_remove`, open and closed banks, every streak from 0 to
        /// cap + 1, and cap 0.
        #[test]
        fn lane_pick_matches_choose_from(
            queue in collection::vec((0u64..6, 0u32..4, 0u32..3, 0u8..4), 0..40),
            removals in collection::vec(0usize..64, 0..12),
            open in collection::vec(0u32..4, 4..5),
            cap in 0u32..6,
        ) {
            use dram_sim::bank::ROW_NONE;
            // Row 3 never matches a lane row, so it stands for a closed bank.
            let open_rows: Vec<u32> = open
                .iter()
                .map(|&row| if row == 3 { ROW_NONE } else { row })
                .collect();
            let mut lanes: Vec<ScanLane> = queue
                .iter()
                .map(|&(arrival_tick, bank, row, issued)| ScanLane {
                    arrival_tick,
                    bank: if issued == 0 { ScanLane::ISSUED } else { bank },
                    row,
                })
                .collect();
            for &at in &removals {
                if !lanes.is_empty() {
                    lanes.swap_remove(at % lanes.len());
                }
            }
            for streak in 0..=cap + 1 {
                let mut s = FrFcfsScheduler::new(cap);
                for _ in 0..streak {
                    s.note_scheduled(0, true);
                }
                prop_assert_eq!(
                    s.choose_lane(&lanes, &open_rows),
                    reference_pick(&s, &lanes, &open_rows),
                    "cap {}, streak {}, lanes {:?}, open rows {:?}",
                    cap,
                    streak,
                    lanes,
                    open_rows
                );
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
