//! The memory controller proper: request queues, command generation, refresh
//! scheduling and the proactive mitigation.

use dram_sim::command::{DramCommand, IssueError};
use dram_sim::device::{DramDevice, DramDeviceConfig};
use dram_sim::org::DramAddress;
use prac_core::config::{MitigationPolicy, PracConfig};
use serde::{Deserialize, Serialize};

use crate::mapping::{AddressMap, MappingKind};
use crate::mitigation::{Activity, Mitigation};
use crate::request::{CompletedRequest, MemoryRequest, RequestKind};
use crate::rfm::{AboResponder, RfmKind};
use crate::scheduler::{FrFcfsIndex, FrFcfsScheduler, SchedulerCandidate, QUEUE_CAPACITY};
use crate::stats::ControllerStats;

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PagePolicy {
    /// Keep rows open after a column access (exploits locality).
    #[default]
    Open,
    /// Precharge immediately after the column access completes.
    Closed,
}

/// Static controller configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Physical→DRAM mapping policy.
    pub mapping: MappingKind,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Whether periodic refresh is issued every tREFI.
    pub refresh_enabled: bool,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            mapping: MappingKind::Mop,
            page_policy: PagePolicy::Open,
            refresh_enabled: true,
        }
    }
}

/// A request being tracked by the controller.
#[derive(Debug, Clone, Copy)]
struct PendingRequest {
    request: MemoryRequest,
    address: DramAddress,
    /// Flat index of the target bank, decoded once at enqueue.
    bank: u32,
    /// The request needed an activation (row was closed when first serviced).
    needed_activate: bool,
    /// The request hit a row conflict (a different row was open).
    had_conflict: bool,
}

/// The memory controller: accepts [`MemoryRequest`]s, drives the
/// [`DramDevice`] one command per tick, and reports completions.
///
/// Proactive RFMs come from the [`Mitigation`] the device's
/// [`MitigationPolicy`] describes.
#[derive(Debug, Clone)]
pub struct MemoryController {
    device: DramDevice,
    config: ControllerConfig,
    /// Which channel of the subsystem this controller drives (0 in
    /// single-channel systems).  Requests routed here must decode to it.
    channel_index: u32,
    mapping: AddressMap,
    scheduler: FrFcfsScheduler,
    /// The request queue, at most [`QUEUE_CAPACITY`] long.  Completed
    /// requests leave it by `swap_remove`.
    pending: Vec<PendingRequest>,
    /// Completion tick of each request in `pending`, position for position:
    /// [`NOT_ISSUED`] until its column command issues.
    completions: Vec<u64>,
    /// The positions of `pending` whose column command has issued: the
    /// only ones the completion walk visits.
    in_flight: u64,
    /// The FR-FCFS candidates of `pending`: its unissued positions in age
    /// order and a row-hit mask, updated by every enqueue, accepted
    /// command and completion removal instead of rescanned.
    index: FrFcfsIndex,
    /// The FR-FCFS choice for the current state, `None` when stale.  It
    /// depends only on the pending set and its queue positions, the open
    /// rows and the hit streak, so it stays valid until an enqueue, an
    /// accepted device command or a completion removal.
    choice: Option<DemandChoice>,
    stats: ControllerStats,
    policy: MitigationPolicy,
    /// Next tick at which a periodic refresh is due.
    next_refresh: u64,
    /// Alert Back-Off responder: shared controller infrastructure, armed
    /// unless the policy turns ABO off (the explicit no-mitigation
    /// baseline).  Under TPRAC it should never fire if the TB-Window is
    /// configured correctly.
    abo: AboResponder,
    /// The proactive mitigation.
    mitigation: Mitigation,
    /// History of issued RFMs as (tick, kind).  Recording stops after
    /// [`RFM_LOG_CAP`] entries (the *first* ~1 M RFMs are kept, later ones
    /// are dropped) to keep memory use flat on pathological runs.
    rfm_log: Vec<(u64, RfmKind)>,
    /// Earliest `completion_tick` among in-flight requests (`u64::MAX` when
    /// none), so the completion walk runs only when something is due.
    next_completion: u64,
    /// Polls served by [`MemoryController::poll`] (telemetry only).
    polls: u64,
    /// FR-FCFS demand scans: misses of the `choice` cache (telemetry only).
    demand_scans: u64,
}

/// The FR-FCFS choice, `(queue index, command)`, or `None` when the queue
/// holds no candidate.
type DemandChoice = Option<(usize, DramCommand)>;

/// The `completions` entry of a request whose column command has not issued.
const NOT_ISSUED: u64 = u64::MAX;

/// Maximum number of RFM-log entries retained.
const RFM_LOG_CAP: usize = 1 << 20;

impl MemoryController {
    /// Creates a controller in front of a freshly-initialised device, with
    /// the mitigation its [`MitigationPolicy`] describes.
    #[must_use]
    pub fn new(device_config: DramDeviceConfig, config: ControllerConfig) -> Self {
        let policy = device_config.prac.policy.clone();
        let timing = device_config.timing;
        let abo = AboResponder::new(&device_config.prac, timing.t_abo_act);
        let mitigation = Mitigation::new(&device_config.prac, timing.t_refi);
        let mapping = AddressMap::new(config.mapping, device_config.organization);
        let scheduler = FrFcfsScheduler::paper_default();
        let next_refresh = timing.t_refi;
        let device = DramDevice::new(device_config);
        Self {
            index: FrFcfsIndex::new(device.bank_count()),
            device,
            channel_index: 0,
            mapping,
            scheduler,
            pending: Vec::with_capacity(QUEUE_CAPACITY),
            completions: Vec::with_capacity(QUEUE_CAPACITY),
            in_flight: 0,
            choice: None,
            stats: ControllerStats::default(),
            policy,
            next_refresh,
            abo,
            mitigation,
            config,
            rfm_log: Vec::new(),
            next_completion: u64::MAX,
            polls: 0,
            demand_scans: 0,
        }
    }

    /// Re-targets a forked controller at a different mitigation
    /// configuration (the divergence point of a pause/fork).
    ///
    /// Rebuilds exactly the policy-dependent pieces
    /// [`MemoryController::new`] derives from the PRAC configuration — the
    /// mitigation, the ABO responder, the declarative policy and the
    /// device-side PRAC parameters — while leaving all accumulated state
    /// (queues, scheduler streaks, bank counters, statistics) untouched.
    /// A fresh mitigation is correct at the fork point because every one
    /// derives its schedule from absolute deadlines anchored at tick 0 and
    /// the fork point lies before the target policy's first possible
    /// divergence (the campaign layer computes that horizon).
    pub fn refit_mitigation(&mut self, prac: PracConfig, tref_every_n_refreshes: Option<u32>) {
        let timing = self.device.config().timing;
        self.mitigation = Mitigation::new(&prac, timing.t_refi);
        self.abo = AboResponder::new(&prac, timing.t_abo_act);
        self.policy = prac.policy.clone();
        self.device.refit_prac(prac, tref_every_n_refreshes);
    }

    /// Assigns the channel of the subsystem this controller drives
    /// (builder-style; 0 by default).  Enqueued requests are
    /// `debug_assert`ed to decode to this channel.
    #[must_use]
    pub fn for_channel(mut self, channel_index: u32) -> Self {
        self.channel_index = channel_index;
        self
    }

    /// The channel of the subsystem this controller drives.
    #[must_use]
    pub fn channel_index(&self) -> u32 {
        self.channel_index
    }

    /// The controller configuration.
    #[must_use]
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The underlying DRAM device (read-only).
    #[must_use]
    pub fn device(&self) -> &DramDevice {
        &self.device
    }

    /// Accumulated controller statistics.
    #[must_use]
    pub fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// The mitigation policy in force.
    #[must_use]
    pub fn policy(&self) -> &MitigationPolicy {
        &self.policy
    }

    /// Chronological log of issued RFMs as `(tick, kind)` pairs.  Recording
    /// stops after the first ~1 M RFMs (`RFM_LOG_CAP`); later RFMs are
    /// counted in the statistics but not logged.
    #[must_use]
    pub fn rfm_log(&self) -> &[(u64, RfmKind)] {
        &self.rfm_log
    }

    /// Number of [`MemoryController::poll`] calls so far.  Telemetry only: it
    /// is not part of the controller statistics and never affects results.
    #[must_use]
    pub fn polls(&self) -> u64 {
        self.polls
    }

    /// Number of FR-FCFS demand picks made so far.  The controller caches
    /// its choice and picks again only after something it depends on changed:
    /// an enqueue, a command the device accepted, or a completed request
    /// leaving the queue.  A poll with no such change since the last one
    /// picks nothing.  Telemetry only, like [`MemoryController::polls`].
    #[must_use]
    pub fn demand_scans(&self) -> u64 {
        self.demand_scans
    }

    /// Number of requests currently pending (queued or in flight).
    #[must_use]
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` when the controller can accept another request.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.pending.len() < QUEUE_CAPACITY
    }

    /// Decodes a physical address with the controller's mapping
    /// (useful for attack code that needs to reason about row co-location).
    #[must_use]
    pub fn decode_address(&self, physical_address: u64) -> DramAddress {
        self.mapping.decode(physical_address)
    }

    /// Re-encodes DRAM coordinates into a physical address.
    #[must_use]
    pub fn encode_address(&self, address: &DramAddress) -> u64 {
        self.mapping.encode(address)
    }

    /// Enqueues a request.  Returns `false` (and drops the request) when the
    /// queue is full; callers that must not lose requests should check
    /// [`MemoryController::can_accept`] first.
    pub fn enqueue(&mut self, request: MemoryRequest) -> bool {
        if !self.can_accept() {
            return false;
        }
        let address = self.mapping.decode(request.physical_address);
        debug_assert_eq!(
            address.channel, self.channel_index,
            "request {:#x} routed to the wrong channel",
            request.physical_address
        );
        let bank = address.flat_bank(&self.device.config().organization);
        let row_hit = self.device.open_rows()[bank as usize] == address.row;
        self.index
            .push(request.arrival_tick, bank, address.row, row_hit);
        self.choice = None;
        self.pending.push(PendingRequest {
            request,
            address,
            bank,
            needed_activate: false,
            had_conflict: false,
        });
        self.completions.push(NOT_ISSUED);
        true
    }

    fn record_rfm(&mut self, now: u64, kind: RfmKind) {
        self.stats.record_rfm(kind);
        if self.rfm_log.len() < RFM_LOG_CAP {
            self.rfm_log.push((now, kind));
        }
    }

    /// Issues `cmd` to the device.  Every accepted command can change the
    /// open rows or the hit streak, so it drops the cached demand choice,
    /// and a command that opens or closes rows updates the index's row
    /// hits.  (A column command's request leaves the candidates in
    /// [`MemoryController::issue_demand`], which knows its queue position.)
    fn issue_command(&mut self, cmd: DramCommand, now: u64) -> Result<u64, IssueError> {
        let result = self.device.issue(cmd, now);
        if result.is_ok() {
            self.choice = None;
            let org = &self.device.config().organization;
            match cmd {
                DramCommand::Activate(addr) => self.index.activated(addr.flat_bank(org), addr.row),
                DramCommand::Precharge(addr) => self.index.precharged(addr.flat_bank(org)),
                DramCommand::PrechargeAll | DramCommand::Refresh | DramCommand::RfmAllBank => {
                    self.index.closed_all();
                }
                DramCommand::Read(_) | DramCommand::Write(_) => {}
            }
        }
        result
    }

    /// Issues an RFMab if the device accepts it, recording its kind.
    /// Returns the end of the blocking period on success.
    fn try_issue_rfm(&mut self, now: u64, kind: RfmKind) -> Option<u64> {
        match self.issue_command(DramCommand::RfmAllBank, now) {
            Ok(end) => {
                self.record_rfm(now, kind);
                Some(end)
            }
            Err(_) => None,
        }
    }

    /// Advances the controller by one tick.  At most one DRAM command is
    /// issued per tick.  Returns the requests that completed at this tick.
    pub fn tick(&mut self, now: u64) -> Vec<CompletedRequest> {
        let mut completed = Vec::new();
        self.tick_into(now, &mut completed);
        completed
    }

    /// [`MemoryController::tick`] with a caller-owned completion buffer:
    /// appends this tick's completions to `completed` instead of allocating
    /// a fresh `Vec` per tick.
    ///
    /// An oracle for [`MemoryController::poll`], which is the stepping call:
    /// it drops the cached FR-FCFS choice first, so the tick scans afresh.
    pub fn tick_into(&mut self, now: u64, completed: &mut Vec<CompletedRequest>) {
        self.choice = None;
        self.step(now, completed);
    }

    /// One tick followed by the wake-up after it: appends this tick's
    /// completions to `completed` and returns exactly what
    /// [`MemoryController::tick_into`] followed by
    /// [`MemoryController::next_event_at`] would.
    ///
    /// This is the stepping call — the memory subsystem and the PRACLeak
    /// agent runner poll a controller at every one of its wake-ups.  The
    /// tick and the wake-up both read the cached FR-FCFS choice, which is
    /// rescanned only after an enqueue, an accepted device command or a
    /// completion removal (see [`MemoryController::demand_scans`]), so a
    /// poll in which nothing issues scans nothing at all.
    pub fn poll(&mut self, now: u64, completed: &mut Vec<CompletedRequest>) -> Option<u64> {
        self.polls += 1;
        self.step(now, completed);
        let choice = self.chosen_demand_command();
        let wake = self.wake_after(now, choice);
        debug_assert_eq!(
            wake,
            self.next_event_at(now),
            "polled wake-up diverged from next_event_at at tick {now}"
        );
        wake
    }

    /// The tick proper: completions, then at most one command.
    fn step(&mut self, now: u64, completed: &mut Vec<CompletedRequest>) {
        self.collect_completions_into(now, completed);

        // 1. Periodic refresh has the highest priority once due.
        if self.config.refresh_enabled
            && now >= self.next_refresh
            && self.device.can_issue(&DramCommand::Refresh, now).is_ok()
        {
            let performs_tref = self.device.next_refresh_performs_tref();
            if self.issue_command(DramCommand::Refresh, now).is_ok() {
                self.stats.refreshes_issued += 1;
                self.next_refresh += self.device.config().timing.t_refi;
                if performs_tref {
                    self.mitigation.note_targeted_refresh();
                }
                return;
            }
        }
        // Refresh due but channel blocked: fall through and retry next tick.

        // 2. Mitigation policies (RFM engines).
        if self.drive_rfm_engines(now) {
            return;
        }

        // 3. Demand scheduling.
        if let Some((index, cmd)) = self.chosen_demand_command() {
            self.issue_demand(now, index, cmd);
        }
        self.collect_completions_into(now, completed);
    }

    /// Runs the ABO responder and the mitigation; returns `true` when an
    /// RFM was issued this tick (consuming the command slot).
    fn drive_rfm_engines(&mut self, now: u64) -> bool {
        // Alert Back-Off: shared infrastructure for every policy that keeps
        // it armed (under TPRAC it should never fire; if it does — e.g. a
        // deliberately misconfigured window — the response is identical,
        // which is what Figure 9(b) relies on).
        if self.policy.uses_abo() {
            if self.device.alert_asserted() {
                self.abo.on_alert(now);
            }
            if self.abo.wants_rfm(now) {
                if let Some(end) = self.try_issue_rfm(now, RfmKind::AboRfm) {
                    self.abo.rfm_issued(end);
                    return true;
                }
                return false;
            }
        }

        // Proactive mitigation: one decision per visited tick.
        let decision = self.mitigation.poll(now, self.activity());
        self.stats.tb_rfms_skipped += u64::from(decision.skipped);
        if let Some(kind) = decision.issue {
            if self.try_issue_rfm(now, kind).is_some() {
                self.mitigation.rfm_issued();
                return true;
            }
            // Channel busy: the mitigation decides whether to defer or drop.
            self.mitigation.rfm_rejected();
        }
        false
    }

    /// The device counters the mitigation reads.  The device keeps the
    /// largest per-bank count since the last RFM as a running maximum; under
    /// ACB, its only reader, debug builds check it against a walk over the
    /// banks.
    fn activity(&self) -> Activity {
        let max_since_rfm = self.device.max_activations_since_rfm();
        debug_assert!(
            !matches!(self.mitigation, Mitigation::Acb { .. })
                || max_since_rfm
                    == (0..self.device.bank_count())
                        .map(|bank| self.device.bank(bank).activations_since_rfm())
                        .max()
                        .unwrap_or(0),
            "the device's running maximum disagrees with the bank walk"
        );
        Activity {
            max_since_rfm,
            total: self.device.stats().activations,
        }
    }

    /// The command the FR-FCFS demand scheduler would attempt right now, as
    /// `(queue index, command)`: the cached choice, or a fresh
    /// [`FrFcfsScheduler::choose`] over the index that refills the cache.  Both
    /// the tick's scheduling step and the wake-up computation read it, which
    /// is what keeps the per-tick and the event-driven paths cycle-exact.
    fn chosen_demand_command(&mut self) -> DemandChoice {
        let choice = match self.choice {
            Some(choice) => choice,
            None => {
                self.demand_scans += 1;
                let choice = self
                    .scheduler
                    .choose(&self.index)
                    .map(|index| (index, self.demand_command(index)));
                self.choice = Some(choice);
                choice
            }
        };
        debug_assert_eq!(
            choice,
            self.scanned_demand_command(),
            "the cached FR-FCFS choice diverged from a fresh scan"
        );
        choice
    }

    /// The oracle for [`MemoryController::chosen_demand_command`]: a fresh
    /// [`FrFcfsScheduler::choose_from`] scan over the pending queue, with no
    /// cache and no index.
    fn scanned_demand_command(&self) -> DemandChoice {
        let candidates = self
            .pending
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.completions[i] == NOT_ISSUED)
            .map(|(i, p)| {
                let bank = self.device.bank(p.bank);
                SchedulerCandidate {
                    queue_index: i,
                    address: p.address,
                    row_hit: bank.open_row() == Some(p.address.row),
                    arrival_tick: p.request.arrival_tick,
                }
            });
        let index = self.scheduler.choose_from(candidates)?.queue_index;
        Some((index, self.demand_command(index)))
    }

    /// The command pending request `index` needs next: RD/WR when its row
    /// is open, PRE on a row conflict, ACT when the bank is closed.
    fn demand_command(&self, index: usize) -> DramCommand {
        let pending = &self.pending[index];
        let addr = pending.address;
        match self.device.bank(pending.bank).open_row() {
            Some(row) if row == addr.row => match pending.request.kind {
                RequestKind::Read => DramCommand::Read(addr),
                RequestKind::Write => DramCommand::Write(addr),
            },
            Some(_) => DramCommand::Precharge(addr),
            None => DramCommand::Activate(addr),
        }
    }

    /// Issues the command the FR-FCFS scheduler chose for pending request
    /// `index` (PRE, ACT, or RD/WR), if the device accepts it.
    fn issue_demand(&mut self, now: u64, index: usize, cmd: DramCommand) {
        let bank = self.pending[index].bank;
        // The hit-streak update is committed only when the device accepts a
        // command: rejected attempts leave the scheduler (and therefore the
        // whole controller) untouched, so cycles in which nothing can issue
        // are pure no-ops the event-driven engine may skip.
        match cmd {
            DramCommand::Read(addr) | DramCommand::Write(addr) => {
                // Row open: issue the column command.  A rejection is either
                // a timing constraint or the row having been closed between
                // candidate collection and issue (e.g. by a refresh); both
                // retry on a later tick.
                let Ok(done) = self.issue_command(cmd, now) else {
                    return;
                };
                self.scheduler.note_scheduled(bank, true);
                self.next_completion = self.next_completion.min(done);
                self.completions[index] = done;
                self.in_flight |= 1 << index;
                self.index.column_issued(index);
                let entry = &self.pending[index];
                // Classify the whole request by what it needed.
                if entry.had_conflict {
                    self.stats.row_conflicts += 1;
                } else if entry.needed_activate {
                    self.stats.row_misses += 1;
                } else {
                    self.stats.row_hits += 1;
                }
                if self.config.page_policy == PagePolicy::Closed {
                    // Best effort immediate precharge; if it violates
                    // timing it will simply be retried by a later
                    // conflict/miss path.
                    let _ = self.issue_command(DramCommand::Precharge(addr), done);
                }
            }
            DramCommand::Precharge(_) => {
                // Row conflict: precharge first.
                if self.issue_command(cmd, now).is_err() {
                    return;
                }
                self.scheduler.note_scheduled(bank, false);
                self.pending[index].had_conflict = true;
            }
            DramCommand::Activate(_) => {
                // Row closed: activate.
                if self.issue_command(cmd, now).is_err() {
                    return;
                }
                self.scheduler.note_scheduled(bank, false);
                self.pending[index].needed_activate = true;
            }
            _ => unreachable!("demand scheduling only produces RD/WR/PRE/ACT"),
        }
    }

    /// Earliest tick strictly after `now` at which [`MemoryController::tick`]
    /// could do anything at all, or `None` when the controller is fully idle
    /// (no pending work and no timer armed).
    ///
    /// This is the controller's wake-up registration for the event-driven
    /// engine.  The contract mirrors `cpu_sim::core_model::Core::next_event_at`:
    /// the returned tick may be conservative (waking early is harmless
    /// because a tick in which nothing can happen mutates no state), but it
    /// must never be later than the first tick with an effect.  Every timer
    /// the per-tick path consults is covered:
    ///
    /// * in-flight request completions,
    /// * periodic refresh (gated by the channel-blocking window),
    /// * the ABO responder (a freshly asserted Alert, or an owed RFM),
    /// * the mitigation's own registration ([`Mitigation::next_event_at`]:
    ///   proactive-RFM eligibility, timing deadlines, deferred-RFM retries),
    /// * the next command the FR-FCFS demand scheduler would attempt.
    ///
    /// An oracle for the wake-up [`MemoryController::poll`] returns: it
    /// ignores the cached FR-FCFS choice and scans the queue afresh with
    /// [`FrFcfsScheduler::choose_from`].
    #[must_use]
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        self.wake_after(now, self.scanned_demand_command())
    }

    /// The wake-up computation behind [`MemoryController::next_event_at`]
    /// and [`MemoryController::poll`], given the FR-FCFS choice for the
    /// current state.
    fn wake_after(&self, now: u64, choice: DemandChoice) -> Option<u64> {
        fn earlier(wake: &mut Option<u64>, candidate: u64) {
            *wake = Some(wake.map_or(candidate, |w| w.min(candidate)));
        }
        let soonest = now + 1;
        let channel_ready = self.device.channel_ready_at();
        let mut wake: Option<u64> = None;

        if self.next_completion != u64::MAX {
            earlier(&mut wake, self.next_completion.max(soonest));
        }
        if self.config.refresh_enabled {
            earlier(&mut wake, self.next_refresh.max(channel_ready).max(soonest));
        }
        if self.policy.uses_abo() {
            if self.device.alert_asserted() && self.abo.pending() == 0 {
                // The responder has not seen this Alert yet; it reacts next
                // tick.
                earlier(&mut wake, soonest);
            }
            if self.abo.pending() > 0 {
                earlier(
                    &mut wake,
                    self.abo.next_rfm_at().max(channel_ready).max(soonest),
                );
            }
        }
        if let Some(mitigation_wake) =
            self.mitigation
                .next_event_at(now, self.activity(), channel_ready)
        {
            earlier(&mut wake, mitigation_wake.max(soonest));
        }
        if let Some((_, cmd)) = choice {
            // When the attempted command is rejected for timing, the device
            // names the first violated constraint's release tick; waking
            // there re-runs the (pure) attempt against the next constraint,
            // so the walk terminates at the true issue tick.
            let demand_wake = match self.device.can_issue(&cmd, soonest) {
                Ok(()) => soonest,
                Err(IssueError::TooEarly { ready_at }) => ready_at.max(soonest),
                Err(IssueError::IllegalState { .. }) => soonest,
            };
            earlier(&mut wake, demand_wake);
        }
        wake
    }

    /// Removes requests whose completion tick has been reached, appending
    /// them to the caller-owned buffer.  The walk runs only when the
    /// earliest in-flight completion is due, and refreshes that cache.
    fn collect_completions_into(&mut self, now: u64, completed: &mut Vec<CompletedRequest>) {
        if now < self.next_completion {
            return;
        }
        let mut next_completion = u64::MAX;
        // The in-flight positions in ascending order.  A removal moves the
        // last request into the freed position, which is visited next.
        let mut from = 0;
        loop {
            let rest = self.in_flight & u64::MAX.checked_shl(from).unwrap_or(0);
            if rest == 0 {
                break;
            }
            let i = rest.trailing_zeros();
            let done = self.completions[i as usize];
            if done <= now {
                let last = self.pending.len() - 1;
                self.in_flight &= !(1 << i);
                if self.in_flight & (1 << last) != 0 {
                    self.in_flight ^= (1 << last) | (1 << i);
                }
                let i = i as usize;
                self.completions.swap_remove(i);
                let p = self.pending.swap_remove(i);
                self.index.swap_remove(i);
                self.choice = None;
                let record = CompletedRequest {
                    id: p.request.id,
                    core: p.request.core,
                    kind: p.request.kind,
                    arrival_tick: p.request.arrival_tick,
                    completion_tick: done,
                };
                match p.request.kind {
                    RequestKind::Read => self.stats.reads_completed += 1,
                    RequestKind::Write => self.stats.writes_completed += 1,
                }
                self.stats.record_latency(record.latency_ticks());
                completed.push(record);
                from = i as u32;
                continue;
            }
            next_completion = next_completion.min(done);
            from = i + 1;
        }
        debug_assert_eq!(
            self.in_flight,
            (0..self.completions.len())
                .filter(|&i| self.completions[i] != NOT_ISSUED)
                .fold(0, |mask, i| mask | 1 << i),
            "the in-flight mask disagrees with the completion ticks"
        );
        self.next_completion = next_completion;
    }
}

impl MemoryController {
    /// Runs the controller from `start` until `deadline` with no new
    /// requests, returning every completion in order.  Visits only the
    /// ticks [`MemoryController::poll`] names; the result equals calling
    /// [`MemoryController::tick`] on every tick in between.
    pub fn run_until(&mut self, start: u64, deadline: u64) -> Vec<CompletedRequest> {
        let mut all = Vec::new();
        let mut now = start;
        while now < deadline {
            now = self
                .poll(now, &mut all)
                .map_or(deadline, |wake| wake.min(deadline));
        }
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::device::DramDeviceConfig;
    use prac_core::config::PracConfig;
    use prac_core::timing::DramTimingSummary;
    use prac_core::tprac::TpracConfig;

    fn tiny_controller(policy: MitigationPolicy) -> MemoryController {
        let prac = PracConfig::builder()
            .rowhammer_threshold(16)
            .back_off_threshold(16)
            .policy(policy)
            .build();
        let config = ControllerConfig {
            refresh_enabled: false,
            ..ControllerConfig::default()
        };
        MemoryController::new(DramDeviceConfig::tiny_for_tests(prac), config)
    }

    fn physical_for(
        ctrl: &MemoryController,
        bank_group: u32,
        bank: u32,
        row: u32,
        col: u32,
    ) -> u64 {
        let org = ctrl.device().config().organization;
        ctrl.encode_address(&DramAddress::new(&org, 0, bank_group, bank, row, col))
    }

    #[test]
    fn single_read_completes_with_reasonable_latency() {
        let mut ctrl = tiny_controller(MitigationPolicy::AboOnly);
        let pa = physical_for(&ctrl, 0, 0, 3, 1);
        assert!(ctrl.enqueue(MemoryRequest::read(1, pa, 0, 0)));
        let completed = ctrl.run_until(0, 2_000);
        assert_eq!(completed.len(), 1);
        let c = completed[0];
        assert_eq!(c.id, 1);
        // ACT (tRCD 64) + RD (tCL+tBL 72) plus a couple of scheduling ticks.
        assert!(c.latency_ticks() >= 136);
        assert!(c.latency_ticks() < 400, "latency {}", c.latency_ticks());
        assert_eq!(ctrl.stats().reads_completed, 1);
        assert_eq!(ctrl.stats().row_misses, 1);
    }

    #[test]
    fn second_access_to_open_row_is_a_hit() {
        let mut ctrl = tiny_controller(MitigationPolicy::AboOnly);
        let pa0 = physical_for(&ctrl, 0, 0, 3, 1);
        let pa1 = physical_for(&ctrl, 0, 0, 3, 2);
        ctrl.enqueue(MemoryRequest::read(1, pa0, 0, 0));
        let _ = ctrl.run_until(0, 2_000);
        ctrl.enqueue(MemoryRequest::read(2, pa1, 0, 2_000));
        let completed = ctrl.run_until(2_000, 3_000);
        assert_eq!(completed.len(), 1);
        assert_eq!(ctrl.stats().row_hits, 1);
        // A row hit is much faster than a miss.
        assert!(completed[0].latency_ticks() < 150);
    }

    #[test]
    fn conflicting_row_causes_precharge_then_activate() {
        let mut ctrl = tiny_controller(MitigationPolicy::AboOnly);
        let pa0 = physical_for(&ctrl, 0, 0, 3, 1);
        let pa1 = physical_for(&ctrl, 0, 0, 4, 1);
        ctrl.enqueue(MemoryRequest::read(1, pa0, 0, 0));
        let _ = ctrl.run_until(0, 2_000);
        ctrl.enqueue(MemoryRequest::read(2, pa1, 0, 2_000));
        let completed = ctrl.run_until(2_000, 5_000);
        assert_eq!(completed.len(), 1);
        assert_eq!(ctrl.stats().row_conflicts, 1);
    }

    #[test]
    fn writes_complete_and_are_counted() {
        let mut ctrl = tiny_controller(MitigationPolicy::AboOnly);
        let pa = physical_for(&ctrl, 1, 0, 2, 0);
        ctrl.enqueue(MemoryRequest::write(7, pa, 1, 0));
        let completed = ctrl.run_until(0, 2_000);
        assert_eq!(completed.len(), 1);
        assert_eq!(completed[0].kind, RequestKind::Write);
        assert_eq!(ctrl.stats().writes_completed, 1);
    }

    #[test]
    fn queue_capacity_is_enforced() {
        let mut ctrl = tiny_controller(MitigationPolicy::AboOnly);
        for i in 0..QUEUE_CAPACITY {
            let pa = physical_for(&ctrl, 0, 0, (i % 8) as u32, 0);
            assert!(ctrl.enqueue(MemoryRequest::read(i as u64, pa, 0, 0)));
        }
        let pa = physical_for(&ctrl, 0, 0, 0, 0);
        assert!(!ctrl.enqueue(MemoryRequest::read(999, pa, 0, 0)));
        assert!(!ctrl.can_accept());
    }

    /// Issues `pairs` alternating, serialized (dependent) accesses to the two
    /// physical addresses, waiting for each to complete before issuing the
    /// next. This is the access pattern an attacker uses to guarantee one
    /// activation per access. Returns the tick after the last completion.
    fn hammer_pairs(
        ctrl: &mut MemoryController,
        pa_a: u64,
        pa_b: u64,
        pairs: u32,
        start: u64,
    ) -> u64 {
        let mut now = start;
        let mut id = 0u64;
        for _ in 0..pairs {
            for pa in [pa_a, pa_b] {
                ctrl.enqueue(MemoryRequest::read(id, pa, 0, now));
                id += 1;
                let mut done = false;
                while !done {
                    now += 1;
                    if !ctrl.tick(now).is_empty() {
                        done = true;
                    }
                    assert!(now < start + 10_000_000, "hammer loop did not converge");
                }
            }
        }
        now
    }

    #[test]
    fn hammering_triggers_abo_rfm_under_abo_only() {
        let mut ctrl = tiny_controller(MitigationPolicy::AboOnly);
        // Alternate two rows in the same bank to force one activation per
        // access; NBO = 16, so 20 pairs comfortably cross the threshold.
        let pa_a = physical_for(&ctrl, 0, 0, 1, 0);
        let pa_b = physical_for(&ctrl, 0, 0, 2, 0);
        hammer_pairs(&mut ctrl, pa_a, pa_b, 20, 0);
        assert!(
            ctrl.stats().abo_rfms >= 1,
            "expected at least one ABO-RFM, stats: {:?}",
            ctrl.stats()
        );
        assert!(ctrl.device().stats().alerts_asserted >= 1);
    }

    #[test]
    fn acb_rfms_fire_before_alert_under_abo_plus_acb() {
        // BAT = 4 with NBO = 64: the proactive engine must fire long before
        // any row reaches the Back-Off threshold.
        let prac = PracConfig::builder()
            .rowhammer_threshold(64)
            .back_off_threshold(64)
            .bank_activation_threshold(4)
            .policy(MitigationPolicy::AboPlusAcbRfm)
            .build();
        let device_config = DramDeviceConfig::tiny_for_tests(prac);
        let config = ControllerConfig {
            refresh_enabled: false,
            ..ControllerConfig::default()
        };
        let mut ctrl = MemoryController::new(device_config, config);
        let pa_a = physical_for(&ctrl, 0, 0, 1, 0);
        let pa_b = physical_for(&ctrl, 0, 0, 2, 0);
        hammer_pairs(&mut ctrl, pa_a, pa_b, 20, 0);
        assert!(ctrl.stats().acb_rfms >= 1, "stats: {:?}", ctrl.stats());
        assert_eq!(ctrl.stats().abo_rfms, 0, "ACB-RFMs should pre-empt Alerts");
    }

    #[test]
    fn tprac_issues_tb_rfms_at_fixed_intervals_without_any_traffic() {
        let timing = DramTimingSummary::ddr5_8000b();
        let tprac_cfg = TpracConfig::with_window_trefi(0.5, &timing);
        let window = tprac_cfg.tb_window_ticks;
        let prac = PracConfig::builder()
            .rowhammer_threshold(1024)
            .policy(MitigationPolicy::Tprac(tprac_cfg))
            .build();
        let device_config = DramDeviceConfig::tiny_for_tests(prac);
        let config = ControllerConfig {
            refresh_enabled: false,
            ..ControllerConfig::default()
        };
        let mut ctrl = MemoryController::new(device_config, config);
        let _ = ctrl.run_until(0, window * 4 + 10);
        assert_eq!(ctrl.stats().tb_rfms, 4);
        // And the log timestamps are (close to) multiples of the window.
        for (i, (tick, kind)) in ctrl.rfm_log().iter().enumerate() {
            assert_eq!(*kind, RfmKind::TbRfm);
            let expected = window * (i as u64 + 1);
            assert!(
                tick.abs_diff(expected) <= window / 10,
                "TB-RFM {i} at {tick}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn tprac_prevents_abo_rfms_under_hammering_serialized() {
        let timing = DramTimingSummary::ddr5_8000b();
        // Aggressive window so even the tiny test device stays below NBO.
        let tprac_cfg = TpracConfig::with_window_trefi(0.25, &timing);
        let prac = PracConfig::builder()
            .rowhammer_threshold(64)
            .back_off_threshold(64)
            .policy(MitigationPolicy::Tprac(tprac_cfg))
            .build();
        let device_config = DramDeviceConfig::tiny_for_tests(prac);
        let config = ControllerConfig {
            refresh_enabled: false,
            ..ControllerConfig::default()
        };
        let mut ctrl = MemoryController::new(device_config, config);
        let pa_a = physical_for(&ctrl, 0, 0, 1, 0);
        let pa_b = physical_for(&ctrl, 0, 0, 2, 0);
        // 100 serialized pairs would reach NBO = 64 without mitigation; with
        // TB-RFMs every 0.25 tREFI the hot row is mitigated long before that.
        hammer_pairs(&mut ctrl, pa_a, pa_b, 100, 0);
        assert_eq!(ctrl.stats().abo_rfms, 0, "TPRAC must eliminate ABO-RFMs");
        assert!(ctrl.stats().tb_rfms > 0);
        assert_eq!(ctrl.device().stats().alerts_asserted, 0);
    }

    #[test]
    fn disabled_policy_issues_no_rfms_under_hammering() {
        let mut ctrl = tiny_controller(MitigationPolicy::Disabled);
        let pa_a = physical_for(&ctrl, 0, 0, 1, 0);
        let pa_b = physical_for(&ctrl, 0, 0, 2, 0);
        // NBO = 16: 40 serialized pairs would assert Alert many times over
        // under ABO-Only; the explicit baseline must stay silent.
        hammer_pairs(&mut ctrl, pa_a, pa_b, 40, 0);
        assert_eq!(ctrl.stats().total_rfms(), 0);
        assert_eq!(ctrl.device().stats().alerts_asserted, 0);
        assert!(!ctrl.policy().uses_abo());
    }

    #[test]
    fn prfm_issues_rfms_on_the_trefi_cadence_without_traffic() {
        let prac = PracConfig::builder()
            .rowhammer_threshold(1024)
            .policy(MitigationPolicy::PeriodicRfm { every_trefi: 2 })
            .build();
        let device_config = DramDeviceConfig::tiny_for_tests(prac);
        let period = device_config.timing.t_refi * 2;
        let config = ControllerConfig {
            refresh_enabled: false,
            ..ControllerConfig::default()
        };
        let mut ctrl = MemoryController::new(device_config, config);
        let _ = ctrl.run_until(0, period * 4 + 10);
        assert_eq!(ctrl.stats().periodic_rfms, 4);
        for (i, (tick, kind)) in ctrl.rfm_log().iter().enumerate() {
            assert_eq!(*kind, RfmKind::PeriodicRfm);
            let expected = period * (i as u64 + 1);
            assert!(
                tick.abs_diff(expected) <= period / 10,
                "periodic RFM {i} at {tick}, expected ~{expected}"
            );
        }
    }

    #[test]
    fn para_issues_probabilistic_rfms_under_traffic_and_none_without() {
        let build = || {
            let prac = PracConfig::builder()
                .rowhammer_threshold(1024)
                .policy(MitigationPolicy::Para {
                    one_in: 4,
                    seed: 11,
                })
                .build();
            let device_config = DramDeviceConfig::tiny_for_tests(prac);
            let config = ControllerConfig {
                refresh_enabled: false,
                ..ControllerConfig::default()
            };
            MemoryController::new(device_config, config)
        };
        // No activations → no draws → no RFMs.
        let mut idle = build();
        let _ = idle.run_until(0, 100_000);
        assert_eq!(idle.stats().total_rfms(), 0);
        // Hammering produces activations, each with a 1-in-4 issue chance.
        let mut busy = build();
        let pa_a = physical_for(&busy, 0, 0, 1, 0);
        let pa_b = physical_for(&busy, 0, 0, 2, 0);
        hammer_pairs(&mut busy, pa_a, pa_b, 20, 0);
        assert!(
            busy.stats().para_rfms > 0,
            "expected PARA RFMs, stats: {:?}",
            busy.stats()
        );
        // Determinism: an identical run replays the exact same RFM log.
        let mut replay = build();
        hammer_pairs(&mut replay, pa_a, pa_b, 20, 0);
        assert_eq!(busy.rfm_log(), replay.rfm_log());
    }

    #[test]
    fn refresh_is_issued_every_trefi_when_enabled() {
        let prac = PracConfig::builder().rowhammer_threshold(1024).build();
        let device_config = DramDeviceConfig::tiny_for_tests(prac);
        let t_refi = device_config.timing.t_refi;
        let config = ControllerConfig {
            refresh_enabled: true,
            ..ControllerConfig::default()
        };
        let mut ctrl = MemoryController::new(device_config, config);
        let _ = ctrl.run_until(0, t_refi * 4 + 10);
        assert_eq!(ctrl.stats().refreshes_issued, 4);
    }

    #[test]
    fn run_until_matches_ticking_every_cycle() {
        let timing = DramTimingSummary::ddr5_8000b();
        let policies = [
            MitigationPolicy::AboOnly,
            MitigationPolicy::Tprac(TpracConfig::with_window_trefi(0.25, &timing)),
            MitigationPolicy::Para { one_in: 4, seed: 3 },
        ];
        for policy in policies {
            let prac = PracConfig::builder()
                .rowhammer_threshold(16)
                .back_off_threshold(16)
                .policy(policy)
                .build();
            let config = ControllerConfig {
                page_policy: PagePolicy::Closed,
                ..ControllerConfig::default()
            };
            let mut skipping =
                MemoryController::new(DramDeviceConfig::tiny_for_tests(prac), config);
            // A queue of row conflicts in one bank (enough activations to
            // assert Alert at NBO = 16) and a few accesses in another.
            for id in 0..48u64 {
                let (bank_group, row) = if id % 4 == 3 { (1, 5) } else { (0, id % 2) };
                let pa = physical_for(&skipping, bank_group, 0, row as u32, 0);
                assert!(skipping.enqueue(MemoryRequest::read(id, pa, 0, id * 3)));
            }
            let mut stepping = skipping.clone();
            let deadline = stepping.device().config().timing.t_refi * 6;
            let mut stepped = Vec::new();
            for now in 0..deadline {
                stepped.extend(stepping.tick(now));
            }
            let skipped = skipping.run_until(0, deadline);
            assert_eq!(skipped.len(), 48);
            assert_eq!(skipped, stepped);
            assert_eq!(skipping.stats(), stepping.stats());
            assert_eq!(skipping.device().stats(), stepping.device().stats());
            assert_eq!(skipping.rfm_log(), stepping.rfm_log());
            assert!(skipping.stats().total_rfms() > 0, "{:?}", skipping.stats());
        }
    }

    /// Polls at `now`, returning the FR-FCFS scans, the accepted commands
    /// and the completions that poll added.
    fn poll_deltas(ctrl: &mut MemoryController, now: u64) -> (u64, u64, usize) {
        let commands = |ctrl: &MemoryController| ctrl.device().stats().total_commands();
        let (scans, before) = (ctrl.demand_scans(), commands(ctrl));
        let mut done = Vec::new();
        let _ = ctrl.poll(now, &mut done);
        (
            ctrl.demand_scans() - scans,
            commands(ctrl) - before,
            done.len(),
        )
    }

    #[test]
    fn polls_rescan_only_after_a_state_change() {
        let mut ctrl = tiny_controller(MitigationPolicy::AboOnly);
        // The first poll scans the empty queue; an idle repeat reuses it.
        assert_eq!(poll_deltas(&mut ctrl, 0), (1, 0, 0));
        assert_eq!(poll_deltas(&mut ctrl, 1), (0, 0, 0));
        // An enqueue forces a rescan (here the ACT it leads to, another).
        let pa = physical_for(&ctrl, 0, 0, 3, 1);
        assert!(ctrl.enqueue(MemoryRequest::read(1, pa, 0, 2)));
        assert_eq!(poll_deltas(&mut ctrl, 2), (2, 1, 0));
        // From here on every poll reuses the choice unless it issued a
        // command (one rescan for the wake-up) or completed the request.
        let mut completions = 0;
        for now in 3..2_000 {
            let (scans, commands, completed) = poll_deltas(&mut ctrl, now);
            match (commands, completed) {
                (0, 0) => assert_eq!(scans, 0, "tick {now}: nothing changed"),
                (1, 0) => assert_eq!(scans, 1, "tick {now}: one command"),
                (0, 1) => {
                    assert_eq!(scans, 1, "tick {now}: a completion rescans");
                    completions += 1;
                }
                other => panic!("tick {now}: unexpected poll {other:?}"),
            }
        }
        assert_eq!(completions, 1);

        // A refresh and an RFM each force a rescan of the (empty) queue.
        let prac = PracConfig::builder().rowhammer_threshold(1024).build();
        let device_config = DramDeviceConfig::tiny_for_tests(prac);
        let t_refi = device_config.timing.t_refi;
        let mut refreshing = MemoryController::new(device_config, ControllerConfig::default());
        let prac = PracConfig::builder()
            .rowhammer_threshold(1024)
            .policy(MitigationPolicy::PeriodicRfm { every_trefi: 1 })
            .build();
        let config = ControllerConfig {
            refresh_enabled: false,
            ..ControllerConfig::default()
        };
        let mut rfm = MemoryController::new(DramDeviceConfig::tiny_for_tests(prac), config);
        for ctrl in [&mut refreshing, &mut rfm] {
            assert_eq!(poll_deltas(ctrl, 0), (1, 0, 0));
            assert_eq!(poll_deltas(ctrl, t_refi - 1), (0, 0, 0));
            assert_eq!(poll_deltas(ctrl, t_refi), (1, 1, 0));
        }
        assert_eq!(refreshing.stats().refreshes_issued, 1);
        assert_eq!(rfm.stats().periodic_rfms, 1);
    }

    #[test]
    fn address_round_trip_through_controller() {
        let ctrl = tiny_controller(MitigationPolicy::AboOnly);
        let pa = 0x1_2340u64;
        let decoded = ctrl.decode_address(pa);
        assert_eq!(ctrl.encode_address(&decoded), pa);
    }
}
