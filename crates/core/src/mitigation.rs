//! The pluggable mitigation-engine API.
//!
//! The memory controller no longer hard-codes the paper's three policies;
//! instead it drives a [`MitigationEngine`] trait object at its decision
//! points, so arbitrary RowHammer defenses — in-tree or injected by
//! downstream code — run through one cycle-exact contract:
//!
//! * **Proactive-RFM eligibility** — once per visited tick the controller
//!   calls [`MitigationEngine::poll`]; the returned [`MitigationDecision`]
//!   says whether to issue an RFM All-Bank now (and how to classify it) and
//!   how many scheduled mitigations were skipped at this tick.
//! * **Issue feedback** — [`MitigationEngine::rfm_issued`] /
//!   [`MitigationEngine::rfm_rejected`] report whether the requested RFM went
//!   out (the DRAM channel may be blocked by a refresh or an earlier RFM).
//! * **Alert handling** — the JEDEC Alert Back-Off responder is shared
//!   controller infrastructure; [`MitigationEngine::responds_to_alert`]
//!   decides whether it is armed at all (`false` only for the explicit
//!   no-mitigation baseline).
//! * **Refresh / TREF notifications** — [`MitigationEngine::note_refresh`]
//!   and [`MitigationEngine::note_targeted_refresh`] deliver the periodic
//!   refresh stream so co-designed defenses (TPRAC's TREF skip) can react.
//! * **Event-engine obligation** — [`MitigationEngine::next_event_at`]
//!   registers the engine's next wake-up so the event-driven simulation
//!   engine can skip every tick in which the engine provably does nothing.
//!
//! # Determinism and purity rules
//!
//! Both simulation engines must produce bit-identical results, which imposes
//! two contracts on every implementation:
//!
//! 1. **Unannounced polls are pure.** The event engine only visits ticks
//!    some component registered a wake-up for; the tick engine visits every
//!    tick.  So on any tick the engine's own `next_event_at` did *not*
//!    announce, `poll` must return an idle decision and must not mutate any
//!    state — a "counting" unannounced poll would diverge between the two
//!    engines.  An engine *may* mutate on an announced tick even when the
//!    decision comes out idle (e.g. [`ParaEngine`] consumes new activations
//!    and advances its RNG on failed draws — legal precisely because its
//!    `next_event_at` reports a wake whenever unconsumed activations
//!    exist, so both engines visit those ticks).
//! 2. **Randomness is seeded.** Probabilistic engines (e.g. [`ParaEngine`])
//!    must derive every draw from an explicit seed carried in the
//!    configuration, never from ambient entropy, so a scenario re-runs
//!    bit-for-bit.
//!
//! `next_event_at` may be conservative (waking early is harmless because an
//! idle poll is pure) but must never be later than the first tick at which
//! `poll` would return a non-idle decision.
//!
//! Counter-reset policy is configuration, not runtime behaviour: a defense
//! declares whether per-row counters reset every tREFW through
//! [`crate::config::PracConfig::counter_reset_every_trefw`] when its
//! descriptor is resolved, and the DRAM device enforces it.

use crate::tprac::{TpracConfig, TpracEvent, TpracScheduler};

/// Read-only view of the per-bank activation state a mitigation engine may
/// consult at a decision point.  Implemented by the memory controller over
/// the live DRAM device.
pub trait BankActivationView {
    /// Number of banks in the channel.
    fn bank_count(&self) -> usize;
    /// Activations bank `bank` has accumulated since its last RFM.
    fn activations_since_rfm(&self, bank: usize) -> u32;
    /// The largest [`BankActivationView::activations_since_rfm`] over every
    /// bank (0 for a view with no banks).  The default walks the banks; a
    /// view that tracks the maximum incrementally should override it.
    fn max_activations_since_rfm(&self) -> u32 {
        (0..self.bank_count())
            .map(|bank| self.activations_since_rfm(bank))
            .max()
            .unwrap_or(0)
    }
    /// Cumulative row activations across the whole channel since reset.
    fn total_activations(&self) -> u64;
}

/// How an engine's proactive RFMs are classified in the controller
/// statistics and the RFM log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProactiveRfmKind {
    /// Activation-Based RFM (the JEDEC Targeted-RFM mechanism; activity
    /// dependent).
    ActivationBased,
    /// TPRAC Timing-Based RFM (activity independent).
    TimingBased,
    /// Periodic RFM issued on a fixed tREFI cadence (activity independent).
    Periodic,
    /// Probabilistic per-activation RFM (PARA-style; activity dependent).
    Probabilistic,
}

/// What the engine asks the controller to do at one tick.
///
/// `skipped` and `issue` are independent: a TPRAC window boundary can count
/// a TREF-skipped TB-RFM *and* retry an earlier deferred RFM at the same
/// tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MitigationDecision {
    /// Scheduled mitigations skipped at this tick (e.g. a TB-RFM absorbed by
    /// a Targeted Refresh).  Counted in the statistics; nothing is issued.
    pub skipped: u32,
    /// Issue an RFM All-Bank now, classified as the given kind.
    pub issue: Option<ProactiveRfmKind>,
}

impl MitigationDecision {
    /// Nothing to do this tick.
    #[must_use]
    pub fn idle() -> Self {
        Self {
            skipped: 0,
            issue: None,
        }
    }

    /// Issue an RFM of `kind` now.
    #[must_use]
    pub fn issue(kind: ProactiveRfmKind) -> Self {
        Self {
            skipped: 0,
            issue: Some(kind),
        }
    }

    /// `true` when the decision neither issues nor skips anything.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.skipped == 0 && self.issue.is_none()
    }
}

/// A cycle-exact proactive-mitigation policy the memory controller drives.
///
/// See the [module documentation](self) for the decision points and the
/// determinism contract.  Implementations must be `Send` so simulations can
/// run on the campaign runner's worker threads.
pub trait MitigationEngine: std::fmt::Debug + Send {
    /// Deep-copies the engine behind its trait object, complete with its
    /// scheduler state and any random stream (the fork primitive).
    fn clone_box(&self) -> Box<dyn MitigationEngine>;

    /// Short human-readable label (reports, logs).
    fn label(&self) -> &'static str;

    /// Whether the controller's Alert Back-Off responder is armed.  `false`
    /// only for the explicit no-mitigation baseline; every real defense
    /// keeps the JEDEC safety net.
    fn responds_to_alert(&self) -> bool {
        true
    }

    /// Called once per visited tick (when the command slot was not consumed
    /// by a refresh or an ABO response).  Returns the engine's decision.
    fn poll(&mut self, now: u64, banks: &dyn BankActivationView) -> MitigationDecision;

    /// The RFM requested by [`MitigationEngine::poll`] was issued at `now`;
    /// the channel is blocked until `blocked_until`.
    fn rfm_issued(&mut self, now: u64, blocked_until: u64) {
        let _ = (now, blocked_until);
    }

    /// The RFM requested by [`MitigationEngine::poll`] could not be issued
    /// at `now` (channel busy).  Engines that must not lose the mitigation
    /// re-arm here and re-request it from a later `poll`.
    fn rfm_rejected(&mut self, now: u64) {
        let _ = now;
    }

    /// A periodic refresh was issued at `now`.
    fn note_refresh(&mut self, now: u64) {
        let _ = now;
    }

    /// The DRAM performed a Targeted Refresh at `now` (mitigating each
    /// bank's queue head).
    fn note_targeted_refresh(&mut self, now: u64) {
        let _ = now;
    }

    /// Earliest tick at which [`MitigationEngine::poll`] could return a
    /// non-idle decision, or `None` when the engine has no timer armed and
    /// no work deferred.  `channel_ready_at` is the earliest tick the DRAM
    /// channel accepts a command (deferred RFMs can only go out then).  The
    /// controller clamps the result to `now + 1`.
    fn next_event_at(
        &self,
        now: u64,
        banks: &dyn BankActivationView,
        channel_ready_at: u64,
    ) -> Option<u64>;
}

/// ABO-only policy: no proactive RFMs at all; mitigation happens purely
/// through the shared Alert Back-Off responder.
#[derive(Debug, Clone, Default)]
pub struct AboOnlyEngine;

impl Clone for Box<dyn MitigationEngine> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

impl MitigationEngine for AboOnlyEngine {
    fn clone_box(&self) -> Box<dyn MitigationEngine> {
        Box::new(self.clone())
    }

    fn label(&self) -> &'static str {
        "ABO-Only"
    }

    fn poll(&mut self, _now: u64, _banks: &dyn BankActivationView) -> MitigationDecision {
        MitigationDecision::idle()
    }

    fn next_event_at(
        &self,
        _now: u64,
        _banks: &dyn BankActivationView,
        _channel_ready_at: u64,
    ) -> Option<u64> {
        None
    }
}

/// Explicit no-mitigation baseline: no proactive RFMs *and* no Alert
/// response.  This is the normalisation baseline of every performance
/// figure, replacing the old trick of setting the Back-Off threshold to an
/// unreachable value.
#[derive(Debug, Clone, Default)]
pub struct DisabledEngine;

impl MitigationEngine for DisabledEngine {
    fn clone_box(&self) -> Box<dyn MitigationEngine> {
        Box::new(self.clone())
    }

    fn label(&self) -> &'static str {
        "Disabled"
    }

    fn responds_to_alert(&self) -> bool {
        false
    }

    fn poll(&mut self, _now: u64, _banks: &dyn BankActivationView) -> MitigationDecision {
        MitigationDecision::idle()
    }

    fn next_event_at(
        &self,
        _now: u64,
        _banks: &dyn BankActivationView,
        _channel_ready_at: u64,
    ) -> Option<u64> {
        None
    }
}

/// Proactive Activation-Based RFM engine (the JEDEC Targeted-RFM
/// mechanism): issues an RFM whenever any bank's activation count since its
/// last RFM reaches the Bank-Activation threshold (BAT).  Activity
/// dependent, and therefore still exploitable as a timing channel.
#[derive(Debug, Clone)]
pub struct AcbEngine {
    bank_activation_threshold: u32,
    rfms_requested: u64,
}

impl AcbEngine {
    /// Creates the engine with the given Bank-Activation threshold.
    #[must_use]
    pub fn new(bank_activation_threshold: u32) -> Self {
        Self {
            bank_activation_threshold,
            rfms_requested: 0,
        }
    }

    /// The configured Bank-Activation threshold.
    #[must_use]
    pub fn bank_activation_threshold(&self) -> u32 {
        self.bank_activation_threshold
    }

    /// Number of ACB-RFMs issued so far.
    #[must_use]
    pub fn rfms_requested(&self) -> u64 {
        self.rfms_requested
    }

    fn wants_rfm(&self, banks: &dyn BankActivationView) -> bool {
        banks.max_activations_since_rfm() >= self.bank_activation_threshold
    }
}

impl MitigationEngine for AcbEngine {
    fn clone_box(&self) -> Box<dyn MitigationEngine> {
        Box::new(self.clone())
    }

    fn label(&self) -> &'static str {
        "ABO+ACB-RFM"
    }

    fn poll(&mut self, _now: u64, banks: &dyn BankActivationView) -> MitigationDecision {
        if self.wants_rfm(banks) {
            MitigationDecision::issue(ProactiveRfmKind::ActivationBased)
        } else {
            MitigationDecision::idle()
        }
    }

    fn rfm_issued(&mut self, _now: u64, _blocked_until: u64) {
        self.rfms_requested += 1;
    }

    fn next_event_at(
        &self,
        _now: u64,
        banks: &dyn BankActivationView,
        channel_ready_at: u64,
    ) -> Option<u64> {
        // The bank counters only move on visited ticks, so the engine either
        // wants an RFM now (issue as soon as the channel frees up) or has
        // nothing scheduled.
        self.wants_rfm(banks).then_some(channel_ready_at)
    }
}

/// The TPRAC defense: activity-independent Timing-Based RFMs driven by a
/// [`TpracScheduler`], with Targeted-Refresh skips.  A TB-RFM whose deadline
/// passes while the channel is busy is deferred and issued as soon as the
/// device accepts it (the deadline already advanced inside the scheduler, so
/// RFM *timing* stays activity independent).
#[derive(Debug, Clone)]
pub struct TpracEngine {
    scheduler: TpracScheduler,
    /// A deadline TB-RFM the channel rejected; retried every poll.
    pending_tb_rfm: bool,
    /// Whether the in-flight issue request came from the scheduler deadline
    /// (as opposed to the deferred-RFM retry path).
    issuing_from_deadline: bool,
}

impl TpracEngine {
    /// Creates the engine with its first TB-RFM due one window from `now`.
    #[must_use]
    pub fn new(config: TpracConfig, now: u64) -> Self {
        Self {
            scheduler: TpracScheduler::new(config, now),
            pending_tb_rfm: false,
            issuing_from_deadline: false,
        }
    }

    /// The scheduler driving this engine.
    #[must_use]
    pub fn scheduler(&self) -> &TpracScheduler {
        &self.scheduler
    }
}

impl MitigationEngine for TpracEngine {
    fn clone_box(&self) -> Box<dyn MitigationEngine> {
        Box::new(self.clone())
    }

    fn label(&self) -> &'static str {
        "TPRAC"
    }

    fn poll(&mut self, now: u64, _banks: &dyn BankActivationView) -> MitigationDecision {
        self.issuing_from_deadline = false;
        let skipped = match self.scheduler.tick(now) {
            TpracEvent::IssueTbRfm => {
                self.issuing_from_deadline = true;
                return MitigationDecision::issue(ProactiveRfmKind::TimingBased);
            }
            TpracEvent::SkippedByTref => 1,
            TpracEvent::Idle => 0,
        };
        MitigationDecision {
            skipped,
            issue: self.pending_tb_rfm.then_some(ProactiveRfmKind::TimingBased),
        }
    }

    fn rfm_issued(&mut self, _now: u64, _blocked_until: u64) {
        if !self.issuing_from_deadline {
            self.pending_tb_rfm = false;
        }
    }

    fn rfm_rejected(&mut self, _now: u64) {
        if self.issuing_from_deadline {
            self.pending_tb_rfm = true;
        }
    }

    fn note_targeted_refresh(&mut self, _now: u64) {
        self.scheduler.note_targeted_refresh();
    }

    fn next_event_at(
        &self,
        _now: u64,
        _banks: &dyn BankActivationView,
        channel_ready_at: u64,
    ) -> Option<u64> {
        let mut wake = self.scheduler.next_deadline();
        if self.pending_tb_rfm {
            wake = wake.min(channel_ready_at);
        }
        Some(wake)
    }
}

/// PRFM: a periodic-RFM baseline that issues one RFM All-Bank every
/// `every_trefi` tREFI, independent of activity and without any per-row
/// state.  Simpler than TPRAC (no security solver, no TREF co-design) and
/// activity independent, but its fixed cadence must be provisioned for the
/// worst case, so it pays the full bandwidth cost at every threshold.
#[derive(Debug, Clone)]
pub struct PrfmEngine {
    period_ticks: u64,
    next_deadline: u64,
    /// A deadline RFM the channel rejected; retried every poll.
    pending_rfm: bool,
    issuing_from_deadline: bool,
    issued: u64,
}

impl PrfmEngine {
    /// Creates an engine issuing one RFM every `every_trefi` tREFI, with the
    /// first due one period after `now`.  `every_trefi` is clamped to at
    /// least 1.
    #[must_use]
    pub fn new(every_trefi: u32, t_refi_ticks: u64, now: u64) -> Self {
        let period_ticks = t_refi_ticks
            .saturating_mul(u64::from(every_trefi.max(1)))
            .max(1);
        Self {
            period_ticks,
            next_deadline: now + period_ticks,
            pending_rfm: false,
            issuing_from_deadline: false,
            issued: 0,
        }
    }

    /// The RFM period in ticks.
    #[must_use]
    pub fn period_ticks(&self) -> u64 {
        self.period_ticks
    }

    /// Periodic RFMs issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// The absolute tick at which the next periodic RFM is due.
    #[must_use]
    pub fn next_deadline(&self) -> u64 {
        self.next_deadline
    }
}

impl MitigationEngine for PrfmEngine {
    fn clone_box(&self) -> Box<dyn MitigationEngine> {
        Box::new(self.clone())
    }

    fn label(&self) -> &'static str {
        "PRFM"
    }

    fn poll(&mut self, now: u64, _banks: &dyn BankActivationView) -> MitigationDecision {
        self.issuing_from_deadline = false;
        if now >= self.next_deadline {
            // One event per poll: a long gap between polls catches up one
            // period at a time, exactly like the TPRAC scheduler.
            self.next_deadline += self.period_ticks;
            self.issuing_from_deadline = true;
            return MitigationDecision::issue(ProactiveRfmKind::Periodic);
        }
        if self.pending_rfm {
            return MitigationDecision::issue(ProactiveRfmKind::Periodic);
        }
        MitigationDecision::idle()
    }

    fn rfm_issued(&mut self, _now: u64, _blocked_until: u64) {
        self.issued += 1;
        if !self.issuing_from_deadline {
            self.pending_rfm = false;
        }
    }

    fn rfm_rejected(&mut self, _now: u64) {
        if self.issuing_from_deadline {
            self.pending_rfm = true;
        }
    }

    fn next_event_at(
        &self,
        _now: u64,
        _banks: &dyn BankActivationView,
        channel_ready_at: u64,
    ) -> Option<u64> {
        let mut wake = self.next_deadline;
        if self.pending_rfm {
            wake = wake.min(channel_ready_at);
        }
        Some(wake)
    }
}

/// PARA-style probabilistic engine: every row activation triggers an RFM
/// All-Bank with probability `1 / one_in`, drawn from a seeded xorshift64*
/// stream.  Activity *dependent* (more activations → more RFMs), so it does
/// not close the PRACLeak timing channel, but its per-activation decision
/// needs no counters at all — the classic PARA trade-off.
#[derive(Debug, Clone)]
pub struct ParaEngine {
    /// Issue threshold on the 64-bit RNG output (`u64::MAX / one_in`).
    threshold: u64,
    state: u64,
    /// Channel-wide activations already consumed from the view.
    seen_activations: u64,
    /// RFMs drawn but not yet issued (the channel may be busy).
    owed: u64,
    issued: u64,
}

impl ParaEngine {
    /// Creates an engine issuing an RFM with probability `1 / one_in` per
    /// activation (`one_in` clamped to at least 1), seeded with `seed`.
    #[must_use]
    pub fn new(one_in: u32, seed: u64) -> Self {
        Self {
            threshold: u64::MAX / u64::from(one_in.max(1)),
            state: seed.max(1),
            seen_activations: 0,
            owed: 0,
            issued: 0,
        }
    }

    /// Probabilistic RFMs issued so far.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// RFMs drawn but still waiting for the channel.
    #[must_use]
    pub fn owed(&self) -> u64 {
        self.owed
    }

    fn draw(&mut self) -> bool {
        self.state = Self::step(self.state);
        self.fires(self.state)
    }

    /// One xorshift64* state transition — the same generator the
    /// obfuscation defense uses.
    fn step(mut x: u64) -> u64 {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x
    }

    /// Whether the draw that left the generator in `state` owes an RFM.
    fn fires(&self, state: u64) -> bool {
        state.wrapping_mul(0x2545_F491_4F6C_DD1D) < self.threshold
    }
}

impl MitigationEngine for ParaEngine {
    fn clone_box(&self) -> Box<dyn MitigationEngine> {
        Box::new(self.clone())
    }

    fn label(&self) -> &'static str {
        "PARA"
    }

    fn poll(&mut self, _now: u64, banks: &dyn BankActivationView) -> MitigationDecision {
        let total = banks.total_activations();
        // One seeded draw per activation, in activation order: batching
        // (the event engine may deliver several at once) cannot change the
        // stream.
        while self.seen_activations < total {
            self.seen_activations += 1;
            if self.draw() {
                self.owed += 1;
            }
        }
        if self.owed > 0 {
            MitigationDecision::issue(ProactiveRfmKind::Probabilistic)
        } else {
            MitigationDecision::idle()
        }
    }

    fn rfm_issued(&mut self, _now: u64, _blocked_until: u64) {
        self.owed = self.owed.saturating_sub(1);
        self.issued += 1;
    }

    fn next_event_at(
        &self,
        now: u64,
        banks: &dyn BankActivationView,
        channel_ready_at: u64,
    ) -> Option<u64> {
        if self.owed > 0 {
            return Some(channel_ready_at);
        }
        // Replay the unconsumed activations' draws on a copy of the
        // generator.  A draw that does not fire changes nothing the
        // controller can see, so whichever later poll consumes it is as good
        // as the next tick; wake immediately only when one fires, so the RFM
        // goes out on the tick the per-tick engine issues it.
        let mut state = self.state;
        (self.seen_activations..banks.total_activations())
            .any(|_| {
                state = Self::step(state);
                self.fires(state)
            })
            .then_some(now + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::DramTimingSummary;

    /// A synthetic bank view for unit tests.
    struct TestView {
        per_bank: Vec<u32>,
        total: u64,
    }

    impl BankActivationView for TestView {
        fn bank_count(&self) -> usize {
            self.per_bank.len()
        }
        fn activations_since_rfm(&self, bank: usize) -> u32 {
            self.per_bank[bank]
        }
        fn total_activations(&self) -> u64 {
            self.total
        }
    }

    fn idle_view() -> TestView {
        TestView {
            per_bank: vec![0; 4],
            total: 0,
        }
    }

    fn all_engines() -> Vec<Box<dyn MitigationEngine>> {
        let timing = DramTimingSummary::ddr5_8000b();
        vec![
            Box::new(AboOnlyEngine),
            Box::new(DisabledEngine),
            Box::new(AcbEngine::new(16)),
            Box::new(TpracEngine::new(
                TpracConfig::with_window_trefi(1.0, &timing),
                0,
            )),
            Box::new(PrfmEngine::new(1, 15_600, 0)),
            Box::new(ParaEngine::new(128, 7)),
        ]
    }

    #[test]
    fn every_engine_clone_replays_the_original_decisions() {
        // Drive each engine for a while, clone it mid-run, then drive both
        // and check the clone makes the exact decisions the original makes
        // after the clone point — the property a forked simulation relies
        // on.  The seeded PARA engine is the sharpest check: its future
        // random draws must carry over into the clone.
        for mut original in all_engines() {
            let view = TestView {
                per_bank: vec![64; 2],
                total: 1024,
            };
            for now in 0..5_000u64 {
                if original.poll(now, &view).issue.is_some() {
                    original.rfm_issued(now, now + 10);
                }
            }
            let mut clone = original.clone_box();
            for now in 5_000..20_000u64 {
                let a = original.poll(now, &view);
                let b = clone.poll(now, &view);
                assert_eq!(
                    a.issue,
                    b.issue,
                    "{} clone diverged at tick {now}",
                    original.label()
                );
                if a.issue.is_some() {
                    original.rfm_issued(now, now + 10);
                    clone.rfm_issued(now, now + 10);
                }
            }
        }
    }

    #[test]
    fn idle_polls_are_pure_and_idle() {
        // Contract rule 1 (unannounced polls are pure): with no activations
        // and no elapsed deadline nothing announces a wake, so poll must
        // return idle and next_event_at must not move.
        let view = idle_view();
        for engine in &mut all_engines() {
            for now in 0..64 {
                let wake_before = engine.next_event_at(now, &view, now);
                let decision = engine.poll(now, &view);
                assert!(
                    decision.is_idle(),
                    "{} polled non-idle at tick {now} with nothing to do",
                    engine.label()
                );
                let wake_after = engine.next_event_at(now, &view, now);
                assert_eq!(
                    wake_before,
                    wake_after,
                    "{} mutated wake-up state on an idle poll",
                    engine.label()
                );
            }
        }
    }

    #[test]
    fn next_event_at_is_monotone_and_never_in_the_past() {
        // Drive each engine tick by tick (acknowledging every requested RFM)
        // and assert that after a poll at `now` the advertised wake-up lies
        // strictly in the future — the event engine would otherwise loop on
        // the current tick — and that re-querying an unchanged engine agrees
        // with itself (purity of `next_event_at`).
        for engine in &mut all_engines() {
            for now in 0..40_000u64 {
                let view = TestView {
                    per_bank: vec![u32::try_from(now / 64).unwrap(); 2],
                    total: now / 4,
                };
                let decision = engine.poll(now, &view);
                if decision.issue.is_some() {
                    engine.rfm_issued(now, now + 10);
                }
                let wake = engine.next_event_at(now, &view, now + 1);
                assert_eq!(
                    wake,
                    engine.next_event_at(now, &view, now + 1),
                    "{}: next_event_at is not pure",
                    engine.label()
                );
                if let Some(wake) = wake {
                    assert!(
                        wake > now,
                        "{}: wake {wake} is not after now {now}",
                        engine.label()
                    );
                }
            }
        }
    }

    #[test]
    fn abo_only_and_disabled_never_issue() {
        let view = TestView {
            per_bank: vec![u32::MAX; 4],
            total: 1 << 20,
        };
        for engine in [
            &mut AboOnlyEngine as &mut dyn MitigationEngine,
            &mut DisabledEngine,
        ] {
            for now in 0..1000 {
                assert!(engine.poll(now, &view).is_idle());
            }
            assert_eq!(engine.next_event_at(1000, &view, 1000), None);
        }
        assert!(AboOnlyEngine.responds_to_alert());
        assert!(!DisabledEngine.responds_to_alert());
    }

    #[test]
    fn acb_engine_triggers_at_bat() {
        let mut engine = AcbEngine::new(16);
        let below = TestView {
            per_bank: vec![0, 5, 15],
            total: 20,
        };
        assert!(engine.poll(0, &below).is_idle());
        assert_eq!(engine.next_event_at(0, &below, 50), None);
        let at = TestView {
            per_bank: vec![0, 16, 2],
            total: 18,
        };
        assert_eq!(
            engine.poll(1, &at).issue,
            Some(ProactiveRfmKind::ActivationBased)
        );
        // Wakes as soon as the channel frees up.
        assert_eq!(engine.next_event_at(1, &at, 50), Some(50));
        engine.rfm_issued(1, 1400);
        assert_eq!(engine.rfms_requested(), 1);
        assert_eq!(engine.bank_activation_threshold(), 16);
    }

    #[test]
    fn prfm_issues_on_a_fixed_cadence() {
        let period = 1_000u64;
        let mut engine = PrfmEngine::new(1, period, 0);
        let view = idle_view();
        let mut issue_ticks = Vec::new();
        for now in 0..period * 4 + 1 {
            let decision = engine.poll(now, &view);
            if decision.issue.is_some() {
                engine.rfm_issued(now, now + 10);
                issue_ticks.push(now);
            }
        }
        assert_eq!(
            issue_ticks,
            vec![period, period * 2, period * 3, period * 4]
        );
        assert_eq!(engine.issued(), 4);
    }

    #[test]
    fn prfm_cadence_is_activity_independent() {
        // The issue schedule must not depend on what the banks report.
        let busy = TestView {
            per_bank: vec![1000; 8],
            total: 1 << 30,
        };
        let quiet = idle_view();
        let period = 512u64;
        let mut a = PrfmEngine::new(1, period, 0);
        let mut b = PrfmEngine::new(1, period, 0);
        let run = |engine: &mut PrfmEngine, view: &TestView| {
            let mut ticks = Vec::new();
            for now in 0..period * 3 + 1 {
                if engine.poll(now, view).issue.is_some() {
                    engine.rfm_issued(now, now);
                    ticks.push(now);
                }
            }
            ticks
        };
        assert_eq!(run(&mut a, &busy), run(&mut b, &quiet));
    }

    #[test]
    fn prfm_defers_rejected_deadline_rfms() {
        let period = 100u64;
        let mut engine = PrfmEngine::new(1, period, 0);
        let view = idle_view();
        assert!(engine.poll(period, &view).issue.is_some());
        engine.rfm_rejected(period);
        // Deferred: retried immediately, wake bound by the channel.
        assert_eq!(
            engine.next_event_at(period, &view, period + 7),
            Some(period + 7)
        );
        assert!(engine.poll(period + 7, &view).issue.is_some());
        engine.rfm_issued(period + 7, period + 20);
        assert!(engine.poll(period + 8, &view).is_idle());
        // The *next* deadline was not pushed back by the deferral.
        assert_eq!(engine.next_deadline(), period * 2);
    }

    #[test]
    fn para_draws_once_per_activation_and_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut engine = ParaEngine::new(4, seed);
            let mut issue_ticks = Vec::new();
            for now in 0..512u64 {
                let view = TestView {
                    per_bank: vec![0; 2],
                    total: now, // one new activation per tick
                };
                if engine.poll(now, &view).issue.is_some() {
                    engine.rfm_issued(now, now);
                    issue_ticks.push(now);
                }
            }
            (issue_ticks, engine.issued())
        };
        let (ticks_a, issued_a) = run(9);
        let (ticks_b, issued_b) = run(9);
        assert_eq!(ticks_a, ticks_b, "same seed must replay bit-for-bit");
        assert_eq!(issued_a, issued_b);
        // ~1/4 of 511 activations ± a generous tolerance.
        assert!(
            (60..200).contains(&(issued_a as usize)),
            "unexpected issue count {issued_a}"
        );
        let (ticks_c, _) = run(10);
        assert_ne!(ticks_a, ticks_c, "different seeds must differ");
    }

    #[test]
    fn para_batched_observation_matches_per_tick_observation() {
        // The event engine may deliver several activations in one poll; the
        // RNG stream (and therefore the owed count) must not change.
        let total = 300u64;
        let mut stepped = ParaEngine::new(8, 42);
        for t in 1..=total {
            let view = TestView {
                per_bank: vec![0],
                total: t,
            };
            let _ = stepped.poll(t, &view);
        }
        let mut batched = ParaEngine::new(8, 42);
        let view = TestView {
            per_bank: vec![0],
            total,
        };
        let _ = batched.poll(total, &view);
        assert_eq!(stepped.owed(), batched.owed());
        assert_eq!(stepped.state, batched.state);
    }

    #[test]
    fn para_wakes_for_unseen_activations_and_owed_rfms() {
        let mut engine = ParaEngine::new(1, 3); // p = 1: every ACT owes an RFM
        let fresh = TestView {
            per_bank: vec![0],
            total: 1,
        };
        // Unseen activation: wake immediately.
        assert_eq!(engine.next_event_at(10, &fresh, 50), Some(11));
        assert!(engine.poll(10, &fresh).issue.is_some());
        // Owed RFM: wake when the channel is ready.
        assert_eq!(engine.next_event_at(10, &fresh, 50), Some(50));
        engine.rfm_issued(10, 60);
        assert_eq!(engine.next_event_at(10, &fresh, 50), None);

        // Unseen activations whose draws all miss: no wake-up, and a later
        // poll consumes them without owing anything.
        let mut engine = ParaEngine::new(4, 3);
        let mut probe = engine.clone();
        let misses = (0..64).take_while(|_| !probe.draw()).count() as u64;
        assert!(misses > 0, "seed 3 should miss on its first draw");
        let mut view = TestView {
            per_bank: vec![0],
            total: misses,
        };
        assert_eq!(engine.next_event_at(10, &view, 50), None);
        // The next activation's draw fires: wake at once.
        view.total += 1;
        assert_eq!(engine.next_event_at(10, &view, 50), Some(11));
        // Consuming only the misses owes nothing.
        view.total = misses;
        assert!(engine.poll(200, &view).issue.is_none());
        assert_eq!(engine.owed(), 0);
    }

    #[test]
    fn tprac_engine_defers_and_skips_like_the_inline_implementation() {
        let timing = DramTimingSummary::ddr5_8000b();
        let config = TpracConfig::with_window_trefi(1.0, &timing);
        let window = config.tb_window_ticks;
        let mut engine = TpracEngine::new(config, 0);
        let view = idle_view();

        // Deadline RFM rejected: deferred, deadline already advanced.
        assert!(engine.poll(window, &view).issue.is_some());
        engine.rfm_rejected(window);
        assert_eq!(
            engine.next_event_at(window, &view, window + 9),
            Some(window + 9)
        );
        assert!(engine.poll(window + 9, &view).issue.is_some());
        engine.rfm_issued(window + 9, window + 100);

        // A TREF absorbs the next window's TB-RFM and counts a skip.
        engine.note_targeted_refresh(window + 50);
        let decision = engine.poll(window * 2, &view);
        assert_eq!(decision.skipped, 1);
        assert_eq!(decision.issue, None);
    }
}
