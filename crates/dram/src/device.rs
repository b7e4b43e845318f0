//! The DRAM device (one channel): banks, channel-wide commands, the Alert
//! Back-Off protocol and counter-reset handling.

use prac_core::config::PracConfig;
use serde::{Deserialize, Serialize};

use crate::bank::{BankMeta, BankRef, BankTimingTable};
use crate::command::{DramCommand, IssueError};
use crate::org::{DramAddress, DramOrganization};
use crate::stats::DramStats;
use crate::timing::DramTimingParams;

/// Static configuration of a [`DramDevice`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramDeviceConfig {
    /// Channel geometry.
    pub organization: DramOrganization,
    /// Timing parameter set.
    pub timing: DramTimingParams,
    /// PRAC protocol parameters (Back-Off threshold, PRAC level, …).
    pub prac: PracConfig,
    /// Whether Targeted Refresh is enabled: every `tref_every_n_refreshes`-th
    /// periodic refresh additionally mitigates each bank's queue head.
    /// `None` disables TREF.
    pub tref_every_n_refreshes: Option<u32>,
}

impl DramDeviceConfig {
    /// The paper's default device: full DDR5 geometry, DDR5-8000B timing,
    /// `NRH = 1024` PRAC configuration, single-entry queue, no TREF.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            organization: DramOrganization::ddr5_32gb_quad_rank(),
            timing: DramTimingParams::ddr5_8000b(),
            prac: PracConfig::paper_default(),
            tref_every_n_refreshes: None,
        }
    }

    /// A small device for fast unit tests.
    #[must_use]
    pub fn tiny_for_tests(prac: PracConfig) -> Self {
        Self {
            organization: DramOrganization::tiny_for_tests(),
            timing: DramTimingParams::fast_for_tests(),
            prac,
            tref_every_n_refreshes: None,
        }
    }
}

/// Sentinel for an empty slot of the per-rank tFAW activation ring (no ACT
/// recorded; real issue ticks are bounded far below this).
const ACT_NONE: u64 = u64::MAX;

/// One DRAM channel with PRAC support.
#[derive(Debug, Clone)]
pub struct DramDevice {
    config: DramDeviceConfig,
    /// Hot per-bank timing state, struct-of-arrays across the channel.
    timings: BankTimingTable,
    /// Cold per-bank state (PRAC counters, queue entries), parallel to
    /// the timing table.
    meta: Vec<BankMeta>,
    /// Channel-wide earliest command time (set by refresh / RFM blocking).
    channel_ready_at: u64,
    /// Per-rank earliest ACT time (tRRD).
    rank_next_act: Vec<u64>,
    /// Per-rank ring of the last four ACT issue ticks (tFAW window), oldest
    /// at the cursor.  Only maintained when `timing.t_faw > 0`, so the
    /// default (tFAW-less) hot path is untouched.
    rank_act_history: Vec<[u64; 4]>,
    /// Per-rank cursor into `rank_act_history` (index of the oldest entry).
    rank_act_cursor: Vec<u8>,
    /// Shared data-bus availability.
    bus_ready_at: u64,
    /// Whether the Alert signal is currently asserted.
    alert: bool,
    /// Activations remaining before a new Alert may assert (ABODelay).
    alert_suppressed_for_acts: u32,
    /// Tick of the next counter reset (tREFW boundary), when enabled.
    next_counter_reset: u64,
    /// Refreshes serviced so far (for TREF cadence).
    refreshes_seen: u64,
    /// Largest per-bank `activations_since_rfm` in the channel.  Raised at
    /// every ACT and zeroed by the two commands that clear every bank's
    /// count: RFMab and a refresh that performs TREF.
    max_activations_since_rfm: u32,
    stats: DramStats,
}

impl DramDevice {
    /// Creates a device in the idle state at tick 0.
    #[must_use]
    pub fn new(config: DramDeviceConfig) -> Self {
        let total_banks = config.organization.total_banks() as usize;
        let meta = vec![BankMeta::default(); total_banks];
        let next_counter_reset = if config.prac.counter_reset_every_trefw {
            config.timing.t_refw
        } else {
            u64::MAX
        };
        let ranks = config.organization.ranks as usize;
        Self {
            rank_next_act: vec![0; ranks],
            rank_act_history: vec![[ACT_NONE; 4]; ranks],
            rank_act_cursor: vec![0; ranks],
            timings: BankTimingTable::new(total_banks),
            meta,
            channel_ready_at: 0,
            bus_ready_at: 0,
            alert: false,
            alert_suppressed_for_acts: 0,
            next_counter_reset,
            refreshes_seen: 0,
            max_activations_since_rfm: 0,
            config,
            stats: DramStats::default(),
        }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &DramDeviceConfig {
        &self.config
    }

    /// Re-targets a forked device at a different PRAC configuration without
    /// disturbing the accumulated bank state (the divergence point of a
    /// `system_sim::PausedSimulation` fork).
    ///
    /// Only valid while no counter reset has fired yet (a fork point within
    /// `system_sim::fork_horizon` is always before the first tREFW
    /// boundary; the caller's purity guard enforces this): a cold device in that regime has its first
    /// reset still scheduled at `tREFW`, so re-deriving the schedule from
    /// the new configuration is exactly what a cold run would hold.
    pub fn refit_prac(&mut self, prac: PracConfig, tref_every_n_refreshes: Option<u32>) {
        debug_assert_eq!(
            self.stats.counter_resets, 0,
            "refit_prac after a counter reset would diverge from a cold run"
        );
        self.config.prac = prac;
        self.config.tref_every_n_refreshes = tref_every_n_refreshes;
        self.next_counter_reset = if self.config.prac.counter_reset_every_trefw {
            self.config.timing.t_refw
        } else {
            u64::MAX
        };
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Whether the Alert signal is currently asserted (a row reached the
    /// Back-Off threshold and the controller has not yet serviced the ABO).
    #[must_use]
    pub fn alert_asserted(&self) -> bool {
        self.alert
    }

    /// Read-only access to a bank by flat index.
    ///
    /// # Panics
    ///
    /// Panics when `flat_bank` is out of range.
    #[must_use]
    pub fn bank(&self, flat_bank: u32) -> BankRef<'_> {
        let i = flat_bank as usize;
        BankRef::new(&self.timings, i, &self.meta[i])
    }

    /// The open row of every bank, indexed by flat bank, with
    /// [`crate::bank::ROW_NONE`] for a precharged bank.
    #[must_use]
    pub fn open_rows(&self) -> &[u32] {
        self.timings.open_rows()
    }

    /// The largest [`BankRef::activations_since_rfm`] over every bank of
    /// the channel, kept up to date by the device instead of walked.
    #[must_use]
    pub fn max_activations_since_rfm(&self) -> u32 {
        self.max_activations_since_rfm
    }

    /// The earliest tick at which *any* bank of the channel can change
    /// state: the branchless min-reduce of
    /// [`BankTimingTable::next_transition_at`] across every bank.
    ///
    /// A bank-local bound only — channel-wide constraints (bus occupancy,
    /// rank ACT-to-ACT spacing, refresh blocking) can push the real issue
    /// time later.
    #[must_use]
    pub fn next_bank_transition_at(&self) -> u64 {
        self.timings.min_next_transition_at()
    }

    /// The earliest tick at which any bank of `rank` can change state: the
    /// packed-argmin fold of [`BankTimingTable::next_transition_at`] over
    /// the rank's contiguous (rank-major) slice of the bank array.
    ///
    /// # Panics
    ///
    /// Panics when `rank` is out of range.
    #[must_use]
    pub fn next_rank_transition_at(&self, rank: u32) -> u64 {
        assert!(rank < self.config.organization.ranks, "rank out of range");
        let banks_per_rank = self.config.organization.banks_per_rank() as usize;
        let start = rank as usize * banks_per_rank;
        self.timings
            .min_next_transition_in(start, start + banks_per_rank)
    }

    /// Number of banks in the channel.
    #[must_use]
    pub fn bank_count(&self) -> u32 {
        self.config.organization.total_banks()
    }

    /// Earliest tick at which the channel accepts any command (after
    /// channel-wide blocking by refresh or RFM).
    #[must_use]
    pub fn channel_ready_at(&self) -> u64 {
        self.channel_ready_at
    }

    fn bank_index(&self, addr: &DramAddress) -> usize {
        addr.flat_bank(&self.config.organization) as usize
    }

    /// Performs the per-tREFW counter reset if the boundary has been crossed.
    fn maybe_reset_counters(&mut self, now: u64) {
        while now >= self.next_counter_reset {
            for meta in &mut self.meta {
                meta.reset_counters();
            }
            self.alert = false;
            self.alert_suppressed_for_acts = 0;
            self.stats.counter_resets += 1;
            self.next_counter_reset += self.config.timing.t_refw;
        }
    }

    /// Checks whether `cmd` may be issued at `now` without mutating state.
    ///
    /// # Errors
    ///
    /// Returns the same errors [`DramDevice::issue`] would return.
    pub fn can_issue(&self, cmd: &DramCommand, now: u64) -> Result<(), IssueError> {
        if now < self.channel_ready_at {
            return Err(IssueError::TooEarly {
                ready_at: self.channel_ready_at,
            });
        }
        match cmd {
            DramCommand::Activate(addr) => {
                let rank_ready = self.rank_next_act[addr.rank as usize];
                if now < rank_ready {
                    return Err(IssueError::TooEarly {
                        ready_at: rank_ready,
                    });
                }
                if self.config.timing.t_faw > 0 {
                    // tFAW: the fourth-most-recent ACT to this rank must be
                    // at least one tFAW window in the past.
                    let rank = addr.rank as usize;
                    let oldest = self.rank_act_history[rank][self.rank_act_cursor[rank] as usize];
                    if oldest != ACT_NONE && now < oldest + self.config.timing.t_faw {
                        return Err(IssueError::TooEarly {
                            ready_at: oldest + self.config.timing.t_faw,
                        });
                    }
                }
                self.timings.can_activate(self.bank_index(addr), now)
            }
            DramCommand::Precharge(addr) => self.timings.can_precharge(self.bank_index(addr), now),
            DramCommand::PrechargeAll => {
                for i in 0..self.timings.len() {
                    self.timings.can_precharge(i, now)?;
                }
                Ok(())
            }
            DramCommand::Read(addr) | DramCommand::Write(addr) => {
                if now < self.bus_ready_at {
                    return Err(IssueError::TooEarly {
                        ready_at: self.bus_ready_at,
                    });
                }
                self.timings
                    .can_access_column(self.bank_index(addr), addr.row, now)
            }
            DramCommand::Refresh | DramCommand::RfmAllBank => Ok(()),
        }
    }

    /// Issues `cmd` at `now`.
    ///
    /// Returns the tick at which the command's effect completes:
    /// * for reads/writes, the data-return / write-accept time,
    /// * for refresh and RFM, the end of the channel-wide blocking period,
    /// * for ACT/PRE, the issue tick itself.
    ///
    /// # Errors
    ///
    /// Returns [`IssueError`] when the command violates a timing constraint or
    /// the bank state machine.
    pub fn issue(&mut self, cmd: DramCommand, now: u64) -> Result<u64, IssueError> {
        self.maybe_reset_counters(now);
        self.can_issue(&cmd, now)?;
        match cmd {
            DramCommand::Activate(addr) => {
                let idx = self.bank_index(&addr);
                self.timings
                    .activate(idx, addr.row, now, &self.config.timing)?;
                let counter = self.meta[idx].note_activation(addr.row);
                self.max_activations_since_rfm = self
                    .max_activations_since_rfm
                    .max(self.meta[idx].activations_since_rfm());
                self.rank_next_act[addr.rank as usize] = now + self.config.timing.t_rrd;
                if self.config.timing.t_faw > 0 {
                    let rank = addr.rank as usize;
                    let cursor = self.rank_act_cursor[rank] as usize;
                    self.rank_act_history[rank][cursor] = now;
                    self.rank_act_cursor[rank] = ((cursor + 1) % 4) as u8;
                }
                self.stats.activations += 1;
                self.stats.max_row_counter = self.stats.max_row_counter.max(counter);
                self.note_activation(counter);
                Ok(now)
            }
            DramCommand::Precharge(addr) => {
                let idx = self.bank_index(&addr);
                self.timings.precharge(idx, now, &self.config.timing)?;
                self.stats.precharges += 1;
                Ok(now)
            }
            DramCommand::PrechargeAll => {
                for i in 0..self.timings.len() {
                    self.timings.precharge(i, now, &self.config.timing)?;
                }
                self.stats.precharges += self.timings.len() as u64;
                Ok(now)
            }
            DramCommand::Read(addr) => {
                let idx = self.bank_index(&addr);
                let done = self.timings.read(idx, addr.row, now, &self.config.timing)?;
                self.bus_ready_at = now + self.config.timing.t_bl;
                self.stats.reads += 1;
                Ok(done)
            }
            DramCommand::Write(addr) => {
                let idx = self.bank_index(&addr);
                let done = self
                    .timings
                    .write(idx, addr.row, now, &self.config.timing)?;
                self.bus_ready_at = now + self.config.timing.t_bl;
                self.stats.writes += 1;
                Ok(done)
            }
            DramCommand::Refresh => Ok(self.service_refresh(now)),
            DramCommand::RfmAllBank => Ok(self.service_rfm(now)),
        }
    }

    /// Handles the PRAC bookkeeping after an activation whose counter reached
    /// `counter`.  Under [`prac_core::config::MitigationPolicy::Disabled`]
    /// the Alert Back-Off protocol is off entirely: counters still count
    /// (they are in-DRAM state), but Alert is never asserted.
    fn note_activation(&mut self, counter: u32) {
        if !self.config.prac.policy.uses_abo() {
            return;
        }
        if self.alert_suppressed_for_acts > 0 {
            self.alert_suppressed_for_acts -= 1;
        }
        if counter >= self.config.prac.back_off_threshold
            && !self.alert
            && self.alert_suppressed_for_acts == 0
        {
            self.alert = true;
            self.stats.alerts_asserted += 1;
        }
    }

    /// Services an all-bank refresh: blocks the channel for tRFC, and when the
    /// TREF cadence is hit, mitigates each bank's queue head.
    fn service_refresh(&mut self, now: u64) -> u64 {
        let t = &self.config.timing;
        let end = if t.refresh_stagger > 0 && self.config.organization.ranks > 1 {
            // Staggered refresh: rank r's blackout runs `r * stagger` ticks
            // longer, so the ranks come back online one after another and
            // the channel itself is never blanket-blocked for the full
            // window (commands to an already-recovered rank may issue while
            // later ranks are still refreshing).
            let banks_per_rank = self.config.organization.banks_per_rank() as usize;
            let ranks = self.config.organization.ranks as usize;
            let mut end = now + t.t_rfc;
            for rank in 0..ranks {
                let duration = t.t_rfc + t.refresh_stagger * rank as u64;
                self.timings.block_range_until(
                    rank * banks_per_rank,
                    (rank + 1) * banks_per_rank,
                    now,
                    duration,
                );
                end = end.max(now + duration);
            }
            end
        } else {
            let end = now + t.t_rfc;
            self.timings.block_all_until(now, t.t_rfc);
            self.channel_ready_at = self.channel_ready_at.max(end);
            end
        };
        self.stats.refreshes += 1;
        self.refreshes_seen += 1;
        if let Some(every) = self.config.tref_every_n_refreshes {
            if every > 0 && self.refreshes_seen.is_multiple_of(u64::from(every)) {
                for meta in &mut self.meta {
                    if meta.mitigate_queue_head().is_some() {
                        self.stats.rows_mitigated_by_tref += 1;
                    }
                }
                self.max_activations_since_rfm = 0;
            }
        }
        end
    }

    /// Services an RFM All-Bank: blocks the channel for tRFMab and mitigates
    /// the queue head of every bank.  Clears the Alert signal and arms the
    /// ABODelay suppression window.
    fn service_rfm(&mut self, now: u64) -> u64 {
        let t = &self.config.timing;
        let end = now + t.t_rfmab;
        self.timings.block_all_until(now, t.t_rfmab);
        for meta in &mut self.meta {
            if meta.mitigate_queue_head().is_some() {
                self.stats.rows_mitigated_by_rfm += 1;
            }
        }
        self.max_activations_since_rfm = 0;
        self.channel_ready_at = self.channel_ready_at.max(end);
        self.stats.rfm_all_bank += 1;
        if self.alert {
            self.alert = false;
            self.alert_suppressed_for_acts = self.config.prac.abo_delay();
        }
        end
    }

    /// Returns `true` when a Targeted Refresh will piggy-back on the next
    /// periodic refresh (used by the controller to skip a TB-RFM).
    #[must_use]
    pub fn next_refresh_performs_tref(&self) -> bool {
        match self.config.tref_every_n_refreshes {
            Some(every) if every > 0 => (self.refreshes_seen + 1).is_multiple_of(u64::from(every)),
            _ => false,
        }
    }

    /// The maximum PRAC counter across all banks (for diagnostics/tests).
    #[must_use]
    pub fn max_counter(&self) -> u32 {
        self.meta
            .iter()
            .map(BankMeta::max_counter)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prac_core::config::PracConfig;

    fn tiny_device(nbo: u32) -> DramDevice {
        let prac = PracConfig::builder()
            .rowhammer_threshold(nbo)
            .back_off_threshold(nbo)
            .build();
        DramDevice::new(DramDeviceConfig::tiny_for_tests(prac))
    }

    fn addr(device: &DramDevice, bank_group: u32, bank: u32, row: u32) -> DramAddress {
        DramAddress::new(&device.config().organization, 0, bank_group, bank, row, 0)
    }

    /// Activates `row` `n` times (with precharges in between), returning the
    /// tick after the last precharge.
    fn hammer(device: &mut DramDevice, a: DramAddress, n: u32, mut now: u64) -> u64 {
        let t = device.config().timing;
        for _ in 0..n {
            now = now.max(device.channel_ready_at());
            let issued = device.issue(DramCommand::Activate(a), now);
            let issued = match issued {
                Ok(_) => now,
                Err(IssueError::TooEarly { ready_at }) => {
                    now = ready_at;
                    device.issue(DramCommand::Activate(a), now).unwrap();
                    now
                }
                Err(e) => panic!("unexpected issue error: {e}"),
            };
            now = issued + t.t_ras;
            device.issue(DramCommand::Precharge(a), now).unwrap();
            now += t.t_rp;
        }
        now
    }

    #[test]
    fn read_after_activate_returns_data() {
        let mut d = tiny_device(64);
        let a = addr(&d, 0, 0, 3);
        let t = d.config().timing;
        d.issue(DramCommand::Activate(a), 0).unwrap();
        let done = d.issue(DramCommand::Read(a), t.t_rcd).unwrap();
        assert_eq!(done, t.t_rcd + t.read_latency());
        assert_eq!(d.stats().reads, 1);
    }

    #[test]
    fn alert_asserts_exactly_at_nbo() {
        let nbo = 8;
        let mut d = tiny_device(nbo);
        let a = addr(&d, 0, 0, 5);
        hammer(&mut d, a, nbo - 1, 0);
        assert!(!d.alert_asserted());
        let now = d.bank(0).act_ready_at().max(d.channel_ready_at());
        d.issue(DramCommand::Activate(a), now).unwrap();
        assert!(d.alert_asserted());
        assert_eq!(d.stats().alerts_asserted, 1);
    }

    #[test]
    fn rfm_clears_alert_and_resets_hot_row() {
        let nbo = 8;
        let mut d = tiny_device(nbo);
        let a = addr(&d, 0, 0, 5);
        let end = hammer(&mut d, a, nbo, 0);
        assert!(d.alert_asserted());
        assert_eq!(d.bank(0).counter(5), nbo);
        let rfm_end = d.issue(DramCommand::RfmAllBank, end).unwrap();
        assert_eq!(rfm_end, end + d.config().timing.t_rfmab);
        assert!(!d.alert_asserted());
        assert_eq!(d.bank(0).counter(5), 0);
        assert!(d.stats().rows_mitigated_by_rfm >= 1);
    }

    #[test]
    fn rfm_blocks_the_whole_channel() {
        let mut d = tiny_device(64);
        let a = addr(&d, 1, 1, 2);
        let end = d.issue(DramCommand::RfmAllBank, 0).unwrap();
        // Any command in any bank must wait for the blocking period to end.
        let err = d.issue(DramCommand::Activate(a), end - 1).unwrap_err();
        assert!(matches!(err, IssueError::TooEarly { ready_at } if ready_at >= end));
        assert!(d.issue(DramCommand::Activate(a), end).is_ok());
    }

    #[test]
    fn refresh_blocks_for_trfc() {
        let mut d = tiny_device(64);
        let end = d.issue(DramCommand::Refresh, 0).unwrap();
        assert_eq!(end, d.config().timing.t_rfc);
        assert_eq!(d.stats().refreshes, 1);
    }

    #[test]
    fn abo_delay_suppresses_immediate_realert() {
        // With NBO = 4 and ABODelay = 1 (PRAC-1), after an RFM the very next
        // activation cannot re-assert Alert even if a counter is still at the
        // threshold (a different row kept its count because only the queue
        // head is mitigated).
        let nbo = 4;
        let mut d = tiny_device(nbo);
        let hot = addr(&d, 0, 0, 1);
        let warm = addr(&d, 0, 1, 2); // different bank: its counter survives
        let end = hammer(&mut d, warm, nbo, 0);
        assert!(d.alert_asserted());
        let end = hammer(&mut d, hot, nbo - 1, end);
        let end = end.max(d.channel_ready_at());
        let rfm_end = d.issue(DramCommand::RfmAllBank, end).unwrap();
        assert!(!d.alert_asserted());
        // `hot` was not the queue head in its bank? It was (only row) — so it
        // got mitigated. Hammer `hot` back up to NBO-1 and check the first
        // activation after RFM does not assert (ABODelay = 1 consumes it).
        let after = hammer(&mut d, hot, 1, rfm_end);
        assert!(!d.alert_asserted());
        let _ = after;
    }

    #[test]
    fn counter_reset_at_trefw_clears_counters() {
        let nbo = 1024; // keep Alert out of the picture
        let mut d = tiny_device(nbo);
        let a = addr(&d, 0, 0, 7);
        hammer(&mut d, a, 5, 0);
        assert_eq!(d.bank(0).counter(7), 5);
        // Jump past the (shortened) tREFW used by the test timing.
        let past_refw = d.config().timing.t_refw + 10;
        d.issue(DramCommand::Activate(a), past_refw).unwrap();
        // The reset happened before the new activation was applied.
        assert_eq!(d.bank(0).counter(7), 1);
        assert_eq!(d.stats().counter_resets, 1);
    }

    #[test]
    fn no_counter_reset_when_disabled() {
        let prac = PracConfig::builder()
            .rowhammer_threshold(1024)
            .counter_reset_every_trefw(false)
            .build();
        let mut d = DramDevice::new(DramDeviceConfig::tiny_for_tests(prac));
        let a = DramAddress::new(&d.config().organization, 0, 0, 0, 7, 0);
        hammer(&mut d, a, 5, 0);
        let past_refw = d.config().timing.t_refw + 10;
        d.issue(DramCommand::Activate(a), past_refw).unwrap();
        assert_eq!(d.bank(0).counter(7), 6);
        assert_eq!(d.stats().counter_resets, 0);
    }

    #[test]
    fn tref_mitigates_on_configured_cadence() {
        let prac = PracConfig::builder().rowhammer_threshold(1024).build();
        let mut cfg = DramDeviceConfig::tiny_for_tests(prac);
        cfg.tref_every_n_refreshes = Some(2);
        let mut d = DramDevice::new(cfg);
        let a = DramAddress::new(&d.config().organization, 0, 0, 0, 3, 0);
        let end = hammer(&mut d, a, 3, 0);
        assert!(!d.next_refresh_performs_tref());
        let end = d.issue(DramCommand::Refresh, end).unwrap();
        assert_eq!(d.stats().rows_mitigated_by_tref, 0);
        assert!(d.next_refresh_performs_tref());
        d.issue(DramCommand::Refresh, end).unwrap();
        assert!(d.stats().rows_mitigated_by_tref >= 1);
        assert_eq!(d.bank(0).counter(3), 0);
    }

    #[test]
    fn disabled_policy_never_asserts_alert() {
        use prac_core::config::MitigationPolicy;
        let nbo = 8;
        let prac = PracConfig::builder()
            .rowhammer_threshold(nbo)
            .back_off_threshold(nbo)
            .policy(MitigationPolicy::Disabled)
            .build();
        let mut d = DramDevice::new(DramDeviceConfig::tiny_for_tests(prac));
        let a = addr(&d, 0, 0, 5);
        hammer(&mut d, a, nbo * 3, 0);
        // Counters still count (in-DRAM state the reset clock owns) but the
        // Alert Back-Off protocol is off entirely.
        assert!(d.bank(0).counter(5) >= nbo);
        assert!(!d.alert_asserted());
        assert_eq!(d.stats().alerts_asserted, 0);
    }

    #[test]
    fn rank_level_act_to_act_spacing_enforced() {
        let mut d = tiny_device(64);
        let a = addr(&d, 0, 0, 1);
        let b = addr(&d, 1, 0, 1); // same rank, different bank group
        d.issue(DramCommand::Activate(a), 0).unwrap();
        let err = d.issue(DramCommand::Activate(b), 1).unwrap_err();
        assert!(matches!(err, IssueError::TooEarly { .. }));
        let ready = d.config().timing.t_rrd;
        assert!(d.issue(DramCommand::Activate(b), ready).is_ok());
    }

    #[test]
    fn tfaw_caps_four_activations_per_rank_window() {
        let prac = PracConfig::builder().rowhammer_threshold(1024).build();
        let mut cfg = DramDeviceConfig::tiny_for_tests(prac);
        cfg.organization = cfg.organization.with_ranks(2);
        cfg.timing.t_faw = 500; // larger than tRC so tFAW is the binding constraint
        let mut d = DramDevice::new(cfg);
        let org = d.config().organization;
        let t_rrd = d.config().timing.t_rrd;
        // Four ACTs to distinct banks of rank 0 at tRRD spacing.
        let mut now = 0;
        for (bg, bank) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            let a = DramAddress::new(&org, 0, bg, bank, 1, 0);
            d.issue(DramCommand::Activate(a), now).unwrap();
            now += t_rrd;
        }
        // A fifth rank-0 ACT before the window closes is deferred to
        // oldest-of-four + tFAW, even once tRC on the bank has elapsed.
        let first = DramAddress::new(&org, 0, 0, 0, 1, 0);
        d.issue(DramCommand::Precharge(first), d.config().timing.t_ras)
            .unwrap();
        let again = DramAddress::new(&org, 0, 0, 0, 2, 0);
        let err = d
            .issue(DramCommand::Activate(again), d.config().timing.t_rc)
            .unwrap_err();
        assert!(matches!(err, IssueError::TooEarly { ready_at: 500 }));
        // The other rank's window is independent.
        let other_rank = DramAddress::new(&org, 1, 0, 0, 1, 0);
        assert!(d.issue(DramCommand::Activate(other_rank), now).is_ok());
        // At the window boundary the deferred ACT issues.
        assert!(d.issue(DramCommand::Activate(again), 500).is_ok());
    }

    #[test]
    fn staggered_refresh_releases_ranks_in_order() {
        let prac = PracConfig::builder().rowhammer_threshold(1024).build();
        let mut cfg = DramDeviceConfig::tiny_for_tests(prac);
        cfg.organization = cfg.organization.with_ranks(2);
        cfg.timing.refresh_stagger = 100;
        let mut d = DramDevice::new(cfg);
        let org = d.config().organization;
        let t_rfc = d.config().timing.t_rfc;
        let end = d.issue(DramCommand::Refresh, 0).unwrap();
        assert_eq!(end, t_rfc + 100, "last rank ends the refresh");
        let rank0 = DramAddress::new(&org, 0, 0, 0, 1, 0);
        let rank1 = DramAddress::new(&org, 1, 0, 0, 1, 0);
        // Rank 0 recovers a full stagger step before rank 1.
        assert!(matches!(
            d.can_issue(&DramCommand::Activate(rank0), t_rfc - 1),
            Err(IssueError::TooEarly { .. })
        ));
        assert!(d.can_issue(&DramCommand::Activate(rank0), t_rfc).is_ok());
        assert!(matches!(
            d.can_issue(&DramCommand::Activate(rank1), t_rfc),
            Err(IssueError::TooEarly { ready_at }) if ready_at == t_rfc + 100
        ));
        assert!(d
            .can_issue(&DramCommand::Activate(rank1), t_rfc + 100)
            .is_ok());
        // The rank-local transition bound tracks the staggered recovery.
        assert_eq!(d.next_rank_transition_at(0), t_rfc);
        assert_eq!(d.next_rank_transition_at(1), t_rfc + 100);
    }

    #[test]
    fn unstaggered_refresh_blocks_the_channel_as_before() {
        let mut d = tiny_device(64);
        let end = d.issue(DramCommand::Refresh, 0).unwrap();
        assert_eq!(end, d.config().timing.t_rfc);
        assert_eq!(d.channel_ready_at(), end);
    }

    #[test]
    fn stats_track_commands() {
        let mut d = tiny_device(64);
        let a = addr(&d, 0, 0, 1);
        let t = d.config().timing;
        d.issue(DramCommand::Activate(a), 0).unwrap();
        d.issue(DramCommand::Read(a), t.t_rcd).unwrap();
        d.issue(DramCommand::Write(a), t.t_rcd + t.t_ccd).unwrap();
        assert_eq!(d.stats().activations, 1);
        assert_eq!(d.stats().reads, 1);
        assert_eq!(d.stats().writes, 1);
    }
}
