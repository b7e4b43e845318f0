//! The controller's proactive mitigations: one closed enum, built from the
//! device's [`MitigationPolicy`].
//!
//! The controller consults its [`Mitigation`] at four points:
//!
//! * **Proactive-RFM eligibility** — once per visited tick (when the
//!   command slot was not taken by a refresh or an ABO response)
//!   [`Mitigation::poll`] returns a [`Decision`]: whether to issue an RFM
//!   All-Bank now, of which [`RfmKind`], and how many scheduled mitigations
//!   were skipped at this tick.
//! * **Issue feedback** — [`Mitigation::rfm_issued`] /
//!   [`Mitigation::rfm_rejected`] report whether the requested RFM went out
//!   (the channel may be blocked by a refresh or an earlier RFM).
//! * **Targeted Refresh** — [`Mitigation::note_targeted_refresh`] lets
//!   TPRAC skip the current window's TB-RFM.
//! * **Event-engine obligation** — [`Mitigation::next_event_at`] names the
//!   next tick at which `poll` could do anything, so the event-driven
//!   engine skips every tick in between.
//!
//! The Alert Back-Off responder is not a mitigation here: it is shared
//! controller infrastructure, armed under every policy but
//! [`MitigationPolicy::Disabled`] ([`MitigationPolicy::uses_abo`]).
//!
//! # Determinism rules
//!
//! Both simulation engines must produce bit-identical results:
//!
//! 1. **Unannounced polls are pure.** The event engine visits only ticks
//!    some component announced; the tick engine visits every tick.  On a
//!    tick `next_event_at` did not announce, `poll` returns an idle decision
//!    and changes nothing.  A poll on an announced tick may change state
//!    while deciding idle: PARA consumes new activations and advances its
//!    generator on draws that miss, which is legal because it announces a
//!    wake whenever one of those draws fires.
//! 2. **Randomness is seeded.** PARA draws from an explicit seed carried in
//!    the policy, never from ambient entropy.
//!
//! `next_event_at` may wake early (an idle poll is pure) but never later
//! than the first tick at which `poll` would return a non-idle decision.

use prac_core::config::{MitigationPolicy, PracConfig};

use crate::rfm::RfmKind;

/// The two device counters a mitigation reads at a decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Activity {
    /// The largest activation count since the last RFM over every bank of
    /// the channel.
    pub max_since_rfm: u32,
    /// Row activations across the whole channel since reset.
    pub total: u64,
}

/// What a mitigation asks the controller to do at one tick.
///
/// `skipped` and `issue` are independent: a TPRAC window boundary can count
/// a TREF-skipped TB-RFM *and* retry an earlier deferred one at the same
/// tick.  The default decision is idle: nothing issued, nothing skipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Decision {
    /// Scheduled mitigations skipped at this tick (a TB-RFM absorbed by a
    /// Targeted Refresh).  Counted in the statistics; nothing is issued.
    pub skipped: u32,
    /// Issue an RFM All-Bank now, classified as this kind.
    pub issue: Option<RfmKind>,
}

/// The proactive mitigation a memory controller runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mitigation {
    /// No proactive RFMs: ABO-Only, and the Disabled baseline (whose ABO
    /// responder is off as well).
    None,
    /// Activation-Based RFMs: one whenever any bank's activations since its
    /// last RFM reach the Bank-Activation threshold.  Activity dependent.
    Acb {
        /// The Bank-Activation threshold `BAT`.
        threshold: u32,
    },
    /// RFMs on fixed deadlines, independent of activity: TPRAC's
    /// Timing-Based RFMs and PRFM's periodic ones.
    Periodic(Periodic),
    /// PARA: each activation owes an RFM with a seeded probability.
    Para(Para),
}

impl Mitigation {
    /// The mitigation `prac.policy` describes.  `prac` also supplies the
    /// Bank-Activation threshold, and `t_refi_ticks` the refresh interval
    /// of PRFM's period.  Deadlines count from tick 0, the controller's
    /// construction.
    #[must_use]
    pub fn new(prac: &PracConfig, t_refi_ticks: u64) -> Self {
        match &prac.policy {
            MitigationPolicy::AboOnly | MitigationPolicy::Disabled => Mitigation::None,
            MitigationPolicy::AboPlusAcbRfm => Mitigation::Acb {
                threshold: prac.bank_activation_threshold,
            },
            MitigationPolicy::Tprac(tprac) => {
                Mitigation::Periodic(Periodic::new(RfmKind::TbRfm, tprac.tb_window_ticks, true))
            }
            MitigationPolicy::PeriodicRfm { every_trefi } => {
                let period = t_refi_ticks
                    .saturating_mul(u64::from((*every_trefi).max(1)))
                    .max(1);
                Mitigation::Periodic(Periodic::new(RfmKind::PeriodicRfm, period, false))
            }
            MitigationPolicy::Para { one_in, seed } => Mitigation::Para(Para::new(*one_in, *seed)),
        }
    }

    /// The decision at `now`, given the device counters.
    pub fn poll(&mut self, now: u64, activity: Activity) -> Decision {
        match self {
            Mitigation::None => Decision::default(),
            Mitigation::Acb { threshold } => Decision {
                skipped: 0,
                issue: (activity.max_since_rfm >= *threshold).then_some(RfmKind::AcbRfm),
            },
            Mitigation::Periodic(periodic) => periodic.poll(now),
            Mitigation::Para(para) => para.poll(activity.total),
        }
    }

    /// The RFM the last [`Mitigation::poll`] requested was issued.
    pub fn rfm_issued(&mut self) {
        match self {
            Mitigation::Periodic(periodic) => {
                if !periodic.from_deadline {
                    periodic.pending = false;
                }
            }
            Mitigation::Para(para) => para.owed = para.owed.saturating_sub(1),
            Mitigation::None | Mitigation::Acb { .. } => {}
        }
    }

    /// The RFM the last [`Mitigation::poll`] requested could not be issued
    /// (channel busy).  A deadline RFM is deferred and re-requested by
    /// every later poll until it goes out; the next deadline stays where it
    /// was, so RFM timing stays activity independent.
    pub fn rfm_rejected(&mut self) {
        if let Mitigation::Periodic(periodic) = self {
            if periodic.from_deadline {
                periodic.pending = true;
            }
        }
    }

    /// The DRAM performed a Targeted Refresh, mitigating each bank's queue
    /// head: TPRAC skips the current window's TB-RFM.  Every other
    /// mitigation ignores it.
    pub fn note_targeted_refresh(&mut self) {
        if let Mitigation::Periodic(periodic) = self {
            if periodic.tref_skip {
                periodic.tref_seen = true;
            }
        }
    }

    /// Earliest tick at which [`Mitigation::poll`] could return a non-idle
    /// decision, or `None` when nothing is armed or owed.
    /// `channel_ready_at` is the earliest tick the channel accepts a
    /// command (an owed RFM can only go out then).  The controller clamps
    /// the result to `now + 1`.
    #[must_use]
    pub fn next_event_at(
        &self,
        now: u64,
        activity: Activity,
        channel_ready_at: u64,
    ) -> Option<u64> {
        match self {
            Mitigation::None => None,
            // The bank counters only move on visited ticks, so ACB either
            // wants an RFM now (as soon as the channel frees up) or has
            // nothing scheduled.
            Mitigation::Acb { threshold } => {
                (activity.max_since_rfm >= *threshold).then_some(channel_ready_at)
            }
            Mitigation::Periodic(periodic) => Some(if periodic.pending {
                periodic.next_deadline.min(channel_ready_at)
            } else {
                periodic.next_deadline
            }),
            Mitigation::Para(para) => para.next_event_at(now, activity.total, channel_ready_at),
        }
    }
}

/// RFMs due every `period` ticks: TPRAC's Timing-Based RFMs (with the
/// Targeted-Refresh skip) or PRFM's periodic ones.
///
/// The deadline register is the paper's RFM-interval register (Section
/// 6.8).  A deadline the channel rejects is deferred and retried on every
/// poll until it goes out, while the next deadline has already advanced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Periodic {
    /// How issued RFMs are classified: [`RfmKind::TbRfm`] or
    /// [`RfmKind::PeriodicRfm`].
    kind: RfmKind,
    period: u64,
    next_deadline: u64,
    /// A deadline RFM the channel rejected, retried every poll.
    pending: bool,
    /// Whether the last poll's request came from the deadline rather than
    /// the deferred-RFM retry.
    from_deadline: bool,
    /// Whether a Targeted Refresh absorbs the window's RFM (TPRAC only).
    tref_skip: bool,
    /// A Targeted Refresh happened since the last deadline.
    tref_seen: bool,
}

impl Periodic {
    fn new(kind: RfmKind, period: u64, tref_skip: bool) -> Self {
        Self {
            kind,
            period,
            next_deadline: period,
            pending: false,
            from_deadline: false,
            tref_skip,
            tref_seen: false,
        }
    }

    fn poll(&mut self, now: u64) -> Decision {
        self.from_deadline = false;
        let mut skipped = 0;
        if now >= self.next_deadline {
            // One deadline per poll: deadlines missed in a long gap between
            // polls are caught up one per poll.
            self.next_deadline += self.period;
            if self.tref_seen {
                self.tref_seen = false;
                skipped = 1;
            } else {
                self.from_deadline = true;
            }
        }
        Decision {
            skipped,
            issue: (self.from_deadline || self.pending).then_some(self.kind),
        }
    }
}

/// PARA-style probabilistic mitigation: every row activation owes an RFM
/// All-Bank with probability `1 / one_in`, drawn from a seeded xorshift64*
/// stream in activation order.  It needs no counters, but it is activity
/// *dependent*, so it does not close the PRACLeak timing channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Para {
    /// A draw fires below this value (`u64::MAX / one_in`).
    threshold: u64,
    state: u64,
    /// Channel activations already drawn for.
    seen: u64,
    /// RFMs drawn but not yet issued (the channel may be busy).
    owed: u64,
}

impl Para {
    fn new(one_in: u32, seed: u64) -> Self {
        Self {
            threshold: u64::MAX / u64::from(one_in.max(1)),
            state: seed.max(1),
            seen: 0,
            owed: 0,
        }
    }

    fn poll(&mut self, total: u64) -> Decision {
        // One draw per activation, in activation order: the event engine
        // may deliver several at once without changing the stream.
        while self.seen < total {
            self.seen += 1;
            if xorshift64_star(&mut self.state) < self.threshold {
                self.owed += 1;
            }
        }
        Decision {
            skipped: 0,
            issue: (self.owed > 0).then_some(RfmKind::ParaRfm),
        }
    }

    fn next_event_at(&self, now: u64, total: u64, channel_ready_at: u64) -> Option<u64> {
        if self.owed > 0 {
            return Some(channel_ready_at);
        }
        // Replay the undrawn activations on a copy of the generator.  A
        // draw that misses changes nothing the controller can see, so any
        // later poll may make it; wake at once only when one fires, so the
        // RFM goes out on the tick the per-tick engine issues it.
        let mut state = self.state;
        (self.seen..total)
            .any(|_| xorshift64_star(&mut state) < self.threshold)
            .then_some(now + 1)
    }
}

/// One step of the xorshift64* generator behind PARA's draws: advances
/// `state` and returns the step's output.  A zero state stays zero, so
/// seeds are clamped to at least 1.
fn xorshift64_star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prac_core::timing::DramTimingSummary;
    use prac_core::tprac::TpracConfig;

    /// The DDR5-8000B tREFI in ticks; also TPRAC's one-tREFI window.
    const T_REFI: u64 = 15_600;

    fn build(policy: MitigationPolicy) -> Mitigation {
        let prac = PracConfig::builder()
            .bank_activation_threshold(16)
            .policy(policy)
            .build();
        Mitigation::new(&prac, T_REFI)
    }

    fn tprac(window_trefi: f64) -> Mitigation {
        let timing = DramTimingSummary::ddr5_8000b();
        build(MitigationPolicy::Tprac(TpracConfig::with_window_trefi(
            window_trefi,
            &timing,
        )))
    }

    fn prfm() -> Mitigation {
        build(MitigationPolicy::PeriodicRfm { every_trefi: 1 })
    }

    fn para(one_in: u32, seed: u64) -> Mitigation {
        build(MitigationPolicy::Para { one_in, seed })
    }

    fn para_state(mitigation: &Mitigation) -> &Para {
        let Mitigation::Para(para) = mitigation else {
            panic!("not PARA: {mitigation:?}");
        };
        para
    }

    fn all_mitigations() -> Vec<Mitigation> {
        vec![
            build(MitigationPolicy::AboOnly),
            build(MitigationPolicy::AboPlusAcbRfm),
            tprac(1.0),
            prfm(),
            para(128, 7),
        ]
    }

    fn activity(max_since_rfm: u32, total: u64) -> Activity {
        Activity {
            max_since_rfm,
            total,
        }
    }

    /// Polls `mitigation` on every tick of `ticks` with `activity_at(now)`,
    /// acknowledging every requested RFM, and returns the issue ticks.
    fn issue_ticks(
        mitigation: &mut Mitigation,
        ticks: std::ops::Range<u64>,
        activity_at: impl Fn(u64) -> Activity,
    ) -> Vec<u64> {
        let mut issued = Vec::new();
        for now in ticks {
            if mitigation.poll(now, activity_at(now)).issue.is_some() {
                mitigation.rfm_issued();
                issued.push(now);
            }
        }
        issued
    }

    #[test]
    fn new_matches_the_policy() {
        assert_eq!(build(MitigationPolicy::AboOnly), Mitigation::None);
        assert_eq!(build(MitigationPolicy::Disabled), Mitigation::None);
        assert_eq!(
            build(MitigationPolicy::AboPlusAcbRfm),
            Mitigation::Acb { threshold: 16 }
        );
        let Mitigation::Periodic(tb) = tprac(1.0) else {
            panic!("TPRAC builds a periodic deadline");
        };
        assert_eq!(
            (tb.kind, tb.period, tb.tref_skip),
            (RfmKind::TbRfm, T_REFI, true)
        );
        let Mitigation::Periodic(periodic) =
            build(MitigationPolicy::PeriodicRfm { every_trefi: 4 })
        else {
            panic!("PRFM builds a periodic deadline");
        };
        assert_eq!(
            (periodic.kind, periodic.period, periodic.tref_skip),
            (RfmKind::PeriodicRfm, 4 * T_REFI, false)
        );
        assert_eq!(para_state(&para(4, 9)).threshold, u64::MAX / 4);
    }

    #[test]
    fn every_clone_replays_the_original_decisions() {
        // Drive each mitigation for a while, clone it mid-run, then drive
        // both: the clone must make exactly the original's decisions, the
        // property a forked simulation relies on.  Seeded PARA is the
        // sharpest check, as its future draws must carry over.
        for mut original in all_mitigations() {
            let busy = activity(64, 1024);
            issue_ticks(&mut original, 0..5_000, |_| busy);
            let mut clone = original.clone();
            for now in 5_000..20_000u64 {
                let a = original.poll(now, busy);
                let b = clone.poll(now, busy);
                assert_eq!(a, b, "{original:?}: the clone diverged at tick {now}");
                if a.issue.is_some() {
                    original.rfm_issued();
                    clone.rfm_issued();
                }
            }
        }
    }

    #[test]
    fn idle_polls_are_pure_and_idle() {
        // Rule 1: with no activations and no elapsed deadline nothing
        // announces a wake, so a poll decides idle and leaves the wake-up
        // where it was.
        let idle = Activity::default();
        for mitigation in &mut all_mitigations() {
            for now in 0..64 {
                let before = mitigation.clone();
                let wake_before = mitigation.next_event_at(now, idle, now);
                assert_eq!(
                    mitigation.poll(now, idle),
                    Decision::default(),
                    "{mitigation:?} polled non-idle at tick {now} with nothing to do"
                );
                assert_eq!(wake_before, mitigation.next_event_at(now, idle, now));
                assert_eq!(*mitigation, before, "an idle poll changed state");
            }
        }
    }

    #[test]
    fn next_event_at_is_pure_and_never_in_the_past() {
        // After a poll at `now` the announced wake-up lies strictly in the
        // future (the event engine would otherwise loop on the current
        // tick), and asking twice gives the same answer.
        for mitigation in &mut all_mitigations() {
            for now in 0..40_000u64 {
                let counters = activity(u32::try_from(now / 64).unwrap(), now / 4);
                if mitigation.poll(now, counters).issue.is_some() {
                    mitigation.rfm_issued();
                }
                let wake = mitigation.next_event_at(now, counters, now + 1);
                assert_eq!(wake, mitigation.next_event_at(now, counters, now + 1));
                if let Some(wake) = wake {
                    assert!(wake > now, "{mitigation:?}: wake {wake} is not after {now}");
                }
            }
        }
    }

    #[test]
    fn none_never_issues() {
        let saturated = activity(u32::MAX, 1 << 20);
        for policy in [MitigationPolicy::AboOnly, MitigationPolicy::Disabled] {
            let mut mitigation = build(policy);
            assert!(issue_ticks(&mut mitigation, 0..1_000, |_| saturated).is_empty());
            assert_eq!(mitigation.next_event_at(1_000, saturated, 1_000), None);
        }
    }

    #[test]
    fn acb_triggers_at_the_bank_activation_threshold() {
        let mut acb = build(MitigationPolicy::AboPlusAcbRfm);
        let below = activity(15, 20);
        assert_eq!(acb.poll(0, below), Decision::default());
        assert_eq!(acb.next_event_at(0, below, 50), None);
        let at = activity(16, 18);
        assert_eq!(acb.poll(1, at).issue, Some(RfmKind::AcbRfm));
        // Wakes as soon as the channel frees up.
        assert_eq!(acb.next_event_at(1, at, 50), Some(50));
    }

    #[test]
    fn deadlines_fall_once_per_period() {
        for mut mitigation in [tprac(1.0), prfm()] {
            assert_eq!(
                issue_ticks(&mut mitigation, 0..T_REFI * 4 + 1, |_| Activity::default()),
                vec![T_REFI, T_REFI * 2, T_REFI * 3, T_REFI * 4],
                "{mitigation:?}"
            );
        }
    }

    #[test]
    fn deadline_rfms_are_independent_of_activity() {
        // The paper's core property: TPRAC's and PRFM's RFM times do not
        // depend on what the banks report.  One copy sees an idle channel,
        // the other saturated counters that grow every tick; both must
        // issue on the same ticks, also while deferring RFMs the channel
        // rejects.
        let idle = |_| Activity::default();
        let saturated = |now: u64| activity(u32::MAX, now * 8);
        for mitigation in [tprac(0.5), prfm()] {
            let run = |activity_at: &dyn Fn(u64) -> Activity| {
                let mut copy = mitigation.clone();
                let mut issued = Vec::new();
                for now in 0..T_REFI * 6 + 1 {
                    let decision = copy.poll(now, activity_at(now));
                    if decision.issue.is_some() {
                        // The channel is busy for the first 2,000 ticks
                        // of every 7,000: those RFMs are deferred.
                        if now % 7_000 < 2_000 {
                            copy.rfm_rejected();
                        } else {
                            copy.rfm_issued();
                            issued.push(now);
                        }
                    }
                }
                issued
            };
            let quiet = run(&idle);
            assert!(quiet.len() >= 6, "{mitigation:?}: {quiet:?}");
            assert_eq!(quiet, run(&saturated), "{mitigation:?}");
        }
    }

    #[test]
    fn rejected_deadline_rfms_are_deferred_not_rescheduled() {
        let idle = Activity::default();
        for (mut mitigation, kind) in [(tprac(1.0), RfmKind::TbRfm), (prfm(), RfmKind::PeriodicRfm)]
        {
            assert_eq!(mitigation.poll(T_REFI, idle).issue, Some(kind));
            mitigation.rfm_rejected();
            // Deferred: retried as soon as the channel is ready.
            assert_eq!(
                mitigation.next_event_at(T_REFI, idle, T_REFI + 7),
                Some(T_REFI + 7)
            );
            assert_eq!(mitigation.poll(T_REFI + 7, idle).issue, Some(kind));
            mitigation.rfm_issued();
            assert_eq!(mitigation.poll(T_REFI + 8, idle), Decision::default());
            // The next deadline was not pushed back by the deferral.
            assert_eq!(
                mitigation.next_event_at(T_REFI + 8, idle, 0),
                Some(T_REFI * 2)
            );
        }
    }

    #[test]
    fn deadlines_catch_up_one_per_poll_after_a_long_gap() {
        let idle = Activity::default();
        let mut mitigation = tprac(1.0);
        // Three windows elapse before the first poll: one RFM per poll.
        for _ in 0..3 {
            assert_eq!(
                mitigation.poll(T_REFI * 3, idle).issue,
                Some(RfmKind::TbRfm)
            );
            mitigation.rfm_issued();
        }
        assert_eq!(mitigation.poll(T_REFI * 3, idle), Decision::default());
    }

    #[test]
    fn a_targeted_refresh_skips_exactly_one_tprac_window() {
        let idle = Activity::default();
        let mut mitigation = tprac(1.0);
        mitigation.note_targeted_refresh();
        assert_eq!(
            mitigation.poll(T_REFI, idle),
            Decision {
                skipped: 1,
                issue: None
            }
        );
        assert_eq!(
            mitigation.poll(T_REFI * 2, idle).issue,
            Some(RfmKind::TbRfm)
        );

        // PRFM ignores Targeted Refreshes.
        let mut mitigation = prfm();
        mitigation.note_targeted_refresh();
        assert_eq!(
            mitigation.poll(T_REFI, idle),
            Decision {
                skipped: 0,
                issue: Some(RfmKind::PeriodicRfm)
            }
        );
    }

    #[test]
    fn tprac_defers_and_skips_at_the_same_tick() {
        let idle = Activity::default();
        let mut mitigation = tprac(1.0);

        // A rejected deadline RFM is deferred, the deadline already moved.
        assert!(mitigation.poll(T_REFI, idle).issue.is_some());
        mitigation.rfm_rejected();
        assert_eq!(
            mitigation.next_event_at(T_REFI, idle, T_REFI + 9),
            Some(T_REFI + 9)
        );
        assert!(mitigation.poll(T_REFI + 9, idle).issue.is_some());
        mitigation.rfm_issued();

        // A TREF absorbs the next window's TB-RFM and counts a skip.
        mitigation.note_targeted_refresh();
        assert_eq!(
            mitigation.poll(T_REFI * 2, idle),
            Decision {
                skipped: 1,
                issue: None
            }
        );

        // A skip and a retry of an earlier deferral share one poll.
        assert!(mitigation.poll(T_REFI * 3, idle).issue.is_some());
        mitigation.rfm_rejected();
        mitigation.note_targeted_refresh();
        assert_eq!(
            mitigation.poll(T_REFI * 4, idle),
            Decision {
                skipped: 1,
                issue: Some(RfmKind::TbRfm)
            }
        );
    }

    #[test]
    fn para_draws_once_per_activation_and_is_seed_deterministic() {
        // One new activation per tick.
        let run = |seed| issue_ticks(&mut para(4, seed), 0..512, |now| activity(0, now));
        let ticks = run(9);
        assert_eq!(ticks, run(9), "the same seed must replay bit for bit");
        // About a quarter of 511 activations, with a generous tolerance.
        assert!((60..200).contains(&ticks.len()), "{} RFMs", ticks.len());
        assert_ne!(ticks, run(10), "different seeds must differ");
    }

    #[test]
    fn para_batched_observation_matches_per_tick_observation() {
        // The event engine may deliver several activations in one poll;
        // the stream, and so the owed count, must not change.
        let mut stepped = para(8, 42);
        for total in 1..=300 {
            let _ = stepped.poll(total, activity(0, total));
        }
        let mut batched = para(8, 42);
        let _ = batched.poll(300, activity(0, 300));
        assert_eq!(stepped, batched);
    }

    #[test]
    fn para_wakes_for_unseen_activations_and_owed_rfms() {
        // p = 1: every activation owes an RFM.
        let mut mitigation = para(1, 3);
        let fresh = activity(0, 1);
        // Unseen activation: wake at once.
        assert_eq!(mitigation.next_event_at(10, fresh, 50), Some(11));
        assert!(mitigation.poll(10, fresh).issue.is_some());
        // Owed RFM: wake when the channel is ready.
        assert_eq!(mitigation.next_event_at(10, fresh, 50), Some(50));
        mitigation.rfm_issued();
        assert_eq!(mitigation.next_event_at(10, fresh, 50), None);

        // Unseen activations whose draws all miss: no wake-up, and a later
        // poll draws them without owing anything.
        let mut mitigation = para(4, 3);
        let mut probe = para_state(&mitigation).clone();
        let misses = (0..64)
            .take_while(|_| xorshift64_star(&mut probe.state) >= probe.threshold)
            .count() as u64;
        assert!(misses > 0, "seed 3 should miss on its first draw");
        assert_eq!(mitigation.next_event_at(10, activity(0, misses), 50), None);
        // The next activation's draw fires: wake at once.
        assert_eq!(
            mitigation.next_event_at(10, activity(0, misses + 1), 50),
            Some(11)
        );
        // Drawing only the misses owes nothing.
        assert_eq!(
            mitigation.poll(200, activity(0, misses)),
            Decision::default()
        );
        assert_eq!(para_state(&mitigation).owed, 0);
    }
}
