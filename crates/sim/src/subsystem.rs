//! The multi-channel memory subsystem: one [`MemoryController`] (with its
//! own PRAC-enabled [`dram_sim::device::DramDevice`] and its own
//! [`memctrl::mitigation::Mitigation`]) per channel, behind a single
//! address router.
//!
//! # Topology
//!
//! ```text
//!                    ┌── controller[0] ── device[0] (banks of channel 0)
//!   CPU requests ──▶ │   controller[1] ── device[1]
//!    (router)        │   …
//!                    └── controller[N-1] ── device[N-1]
//! ```
//!
//! The router decodes the channel bits of every physical address with an
//! [`AddressMap`] built exactly as the per-channel controllers build theirs
//! (the configured [`memctrl::mapping::MappingKind`] over the subsystem's
//! organisation), so a request always lands on the controller whose device
//! owns its bank.  The channel bits sit right above the cache-line offset:
//! consecutive cache lines rotate across channels.  Channels are fully
//! independent, exactly as in hardware: each has its own command bus,
//! refresh schedule, Alert Back-Off responder, and mitigation, so
//! per-channel ABO alerts, RFM budgets and TB-RFM stalls never interfere
//! across channels.
//!
//! With one channel the subsystem degenerates to the original
//! single-controller wiring and is **bit-identical** to it (pinned by
//! `tests/single_channel_snapshot.rs`).
//!
//! [`MemorySubsystem::tick_due`] polls the due channels one after another
//! in channel index order on the calling thread; that order fixes the
//! completion order and so every downstream request id and statistic.

use dram_sim::device::DramDeviceConfig;
use dram_sim::stats::DramStats;
use memctrl::controller::{ControllerConfig, MemoryController};
use memctrl::mapping::AddressMap;
use memctrl::request::{CompletedRequest, MemoryRequest};
use memctrl::rfm::RfmKind;
use memctrl::stats::ControllerStats;
use prac_core::config::MitigationPolicy;
use serde::{Deserialize, Serialize};

/// Per-channel statistics block of a finished run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Channel index.
    pub channel: u32,
    /// The channel controller's statistics.
    pub controller: ControllerStats,
    /// The channel device's statistics.
    pub dram: DramStats,
}

/// N independent per-channel memory controllers behind one address router.
#[derive(Debug, Clone)]
pub struct MemorySubsystem {
    controllers: Vec<MemoryController>,
    /// Subsystem-level copy of the address map, used only to route
    /// requests to channels (each controller re-decodes internally).
    router: AddressMap,
}

/// Splay constant mixed into per-channel seeds (the golden-ratio mixer);
/// channel 0 contributes nothing, so single-channel seeds are untouched.
const CHANNEL_SEED_MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl MemorySubsystem {
    /// Builds one controller (and device) per channel of
    /// `device_config.organization.channels`.
    ///
    /// Every channel receives an identical configuration — same timing, same
    /// PRAC parameters, same mitigation policy — mirroring a homogeneous
    /// DIMM population.  Each channel's mitigation engine is an independent
    /// instance, so engine state (TB-RFM schedules, PARA draws, ACB
    /// counters) is strictly per-channel, and **seeded randomness is
    /// per-channel too**: a configured PARA seed is mixed with the channel
    /// index so channels draw independent decision streams, as independent
    /// hardware would — channel 0 keeps the configured seed unchanged, so
    /// single-channel runs are unaffected.
    #[must_use]
    pub fn new(device_config: DramDeviceConfig, controller_config: ControllerConfig) -> Self {
        let channels = device_config.organization.channels.max(1);
        let router = AddressMap::new(controller_config.mapping, device_config.organization);
        let controllers = (0..channels)
            .map(|channel| {
                let mix = u64::from(channel).wrapping_mul(CHANNEL_SEED_MIX);
                let mut device = device_config.clone();
                if let MitigationPolicy::Para { one_in, seed } = device.prac.policy {
                    device.prac.policy = MitigationPolicy::Para {
                        one_in,
                        seed: seed ^ mix,
                    };
                }
                MemoryController::new(device, controller_config.clone()).for_channel(channel)
            })
            .collect();
        Self {
            controllers,
            router,
        }
    }

    /// Re-targets a forked subsystem at a different mitigation
    /// configuration (the divergence point of a pause/fork), mirroring the
    /// per-channel derivations [`MemorySubsystem::new`] performs: PARA
    /// seeds are re-mixed with the channel index so every channel keeps an
    /// independent decision stream, and each controller refits its engine,
    /// ABO responder and device-side PRAC parameters in place.
    pub fn refit_mitigation(
        &mut self,
        prac: &prac_core::config::PracConfig,
        tref_every_n_refreshes: Option<u32>,
    ) {
        for (channel, controller) in self.controllers.iter_mut().enumerate() {
            let mix = (channel as u64).wrapping_mul(CHANNEL_SEED_MIX);
            let mut prac = prac.clone();
            if let MitigationPolicy::Para { one_in, seed } = prac.policy {
                prac.policy = MitigationPolicy::Para {
                    one_in,
                    seed: seed ^ mix,
                };
            }
            controller.refit_mitigation(prac, tref_every_n_refreshes);
        }
    }

    /// Number of channels.
    #[must_use]
    pub fn channels(&self) -> u32 {
        self.controllers.len() as u32
    }

    /// The per-channel controllers, in channel order.
    #[must_use]
    pub fn controllers(&self) -> &[MemoryController] {
        &self.controllers
    }

    /// The controller of one channel.
    ///
    /// # Panics
    ///
    /// Panics when `channel` is out of range.
    #[must_use]
    pub fn controller(&self, channel: u32) -> &MemoryController {
        &self.controllers[channel as usize]
    }

    /// Decodes the channel a physical address routes to.  This sits on the
    /// per-request hot path, so it uses the mapping's channel-only decode (a
    /// shift-and-mask; a constant 0 with one channel) rather than a full
    /// coordinate decode — the target controller re-decodes at enqueue.
    #[must_use]
    pub fn route(&self, physical_address: u64) -> u32 {
        self.router.decode_channel(physical_address)
    }

    /// Whether the given channel's controller can accept another request.
    #[must_use]
    pub fn can_accept(&self, channel: u32) -> bool {
        self.controllers[channel as usize].can_accept()
    }

    /// Enqueues a request on the given channel.  Returns `false` (dropping
    /// the request) when that channel's queue is full.
    pub fn enqueue(&mut self, channel: u32, request: MemoryRequest) -> bool {
        self.controllers[channel as usize].enqueue(request)
    }

    /// Polls exactly the channels whose `due` flag is set
    /// ([`MemoryController::poll`]: one tick plus the wake-up after it),
    /// appending their completions to `completed` in channel order and
    /// writing each due channel's next wake-up to `wakes[channel]`.  The
    /// entries of channels that were not due are left untouched.
    ///
    /// This is the per-channel scheduling entry point: the event engine
    /// tracks one wake-up stream per channel and sets `due` only for the
    /// channels whose wake-up equals `now`, so a quiet channel no longer
    /// pays for every busy channel's events.  Skipping a non-due channel is
    /// exact, not approximate: by the engine purity contract a poll of a
    /// channel before its registered wake-up is a pure no-op, and an
    /// unpolled channel's state (hence its armed wake-up) cannot change.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `due.len()` or `wakes.len()` differs
    /// from the channel count.
    pub fn tick_due(
        &mut self,
        now: u64,
        due: &[bool],
        completed: &mut Vec<CompletedRequest>,
        wakes: &mut [Option<u64>],
    ) {
        debug_assert_eq!(due.len(), self.controllers.len());
        debug_assert_eq!(wakes.len(), self.controllers.len());
        for ((controller, wake), &is_due) in self.controllers.iter_mut().zip(wakes).zip(due) {
            if is_due {
                *wake = controller.poll(now, completed);
            }
        }
    }

    /// Controller statistics summed over every channel.
    #[must_use]
    pub fn aggregated_controller_stats(&self) -> ControllerStats {
        let mut total = ControllerStats::default();
        for controller in &self.controllers {
            total.merge(controller.stats());
        }
        total
    }

    /// DRAM statistics summed over every channel.
    #[must_use]
    pub fn aggregated_dram_stats(&self) -> DramStats {
        let mut total = DramStats::default();
        for controller in &self.controllers {
            total.merge(controller.device().stats());
        }
        total
    }

    /// Per-channel statistics blocks, in channel order.
    #[must_use]
    pub fn channel_stats(&self) -> Vec<ChannelStats> {
        self.controllers
            .iter()
            .enumerate()
            .map(|(channel, controller)| ChannelStats {
                channel: channel as u32,
                controller: *controller.stats(),
                dram: *controller.device().stats(),
            })
            .collect()
    }

    /// The RFM logs of every channel merged into one chronological log.
    /// Per-channel logs are already tick-sorted; ties across channels break
    /// by channel index, so the merge is deterministic.
    #[must_use]
    pub fn merged_rfm_log(&self) -> Vec<(u64, RfmKind)> {
        if self.controllers.len() == 1 {
            return self.controllers[0].rfm_log().to_vec();
        }
        let total: usize = self
            .controllers
            .iter()
            .map(|controller| controller.rfm_log().len())
            .sum();
        let mut tagged: Vec<(u64, u32, RfmKind)> = Vec::with_capacity(total);
        for (channel, controller) in self.controllers.iter().enumerate() {
            tagged.extend(
                controller
                    .rfm_log()
                    .iter()
                    .map(|&(tick, kind)| (tick, channel as u32, kind)),
            );
        }
        tagged.sort_by_key(|&(tick, channel, _)| (tick, channel));
        tagged
            .into_iter()
            .map(|(tick, _, kind)| (tick, kind))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prac_core::config::PracConfig;

    fn subsystem(channels: u32) -> MemorySubsystem {
        let prac = PracConfig::builder()
            .rowhammer_threshold(1024)
            .policy(MitigationPolicy::AboOnly)
            .build();
        let mut device = DramDeviceConfig::tiny_for_tests(prac);
        device.organization = device.organization.with_channels(channels);
        let config = ControllerConfig {
            refresh_enabled: false,
            ..ControllerConfig::default()
        };
        MemorySubsystem::new(device, config)
    }

    /// Polls every channel on every tick in `ticks`, appending completions
    /// to `completed`; returns the wake-ups of the last poll.
    fn poll_all(
        sub: &mut MemorySubsystem,
        ticks: std::ops::Range<u64>,
        completed: &mut Vec<CompletedRequest>,
    ) -> Vec<Option<u64>> {
        let channels = sub.channels() as usize;
        let due = vec![true; channels];
        let mut wakes = vec![None; channels];
        for now in ticks {
            sub.tick_due(now, &due, completed, &mut wakes);
        }
        wakes
    }

    #[test]
    fn builds_one_controller_per_channel() {
        let sub = subsystem(4);
        assert_eq!(sub.channels(), 4);
        for (i, controller) in sub.controllers().iter().enumerate() {
            assert_eq!(controller.channel_index(), i as u32);
        }
    }

    #[test]
    fn routing_matches_the_controllers_own_decode() {
        let sub = subsystem(4);
        for line in 0..64u64 {
            let pa = line * 64;
            let channel = sub.route(pa);
            assert!(channel < 4);
            let decoded = sub.controller(channel).decode_address(pa);
            assert_eq!(decoded.channel, channel);
        }
    }

    #[test]
    fn requests_complete_on_their_own_channels() {
        let mut sub = subsystem(2);
        // Two consecutive cache lines land on different channels.
        for (id, pa) in [(1u64, 0u64), (2, 64)] {
            let channel = sub.route(pa);
            assert!(sub.enqueue(channel, MemoryRequest::read(id, pa, 0, 0)));
        }
        assert_ne!(sub.route(0), sub.route(64));
        let mut completed = Vec::new();
        poll_all(&mut sub, 0..2_000, &mut completed);
        assert_eq!(completed.len(), 2);
        let stats = sub.aggregated_controller_stats();
        assert_eq!(stats.reads_completed, 2);
        // Each channel serviced exactly one request.
        for per_channel in sub.channel_stats() {
            assert_eq!(per_channel.controller.reads_completed, 1);
        }
    }

    #[test]
    fn channels_progress_independently() {
        // Saturate channel 0's queue; channel 1 must still accept.
        let mut sub = subsystem(2);
        let capacity = memctrl::scheduler::QUEUE_CAPACITY;
        let mut id = 0u64;
        let mut pa = 0u64;
        while (sub.controller(0).pending_requests()) < capacity {
            if sub.route(pa) == 0 {
                assert!(sub.enqueue(0, MemoryRequest::read(id, pa, 0, 0)));
                id += 1;
            }
            pa += 64;
        }
        assert!(!sub.can_accept(0));
        assert!(sub.can_accept(1));
    }

    #[test]
    fn single_channel_subsystem_is_transparent() {
        let mut sub = subsystem(1);
        assert_eq!(sub.channels(), 1);
        assert_eq!(sub.route(0x1234_5600), 0);
        assert!(sub.enqueue(0, MemoryRequest::read(9, 0x40, 0, 0)));
        let mut completed = Vec::new();
        poll_all(&mut sub, 0..2_000, &mut completed);
        assert_eq!(completed.len(), 1);
        assert_eq!(sub.merged_rfm_log(), sub.controller(0).rfm_log());
    }

    #[test]
    fn seeded_randomness_is_independent_per_channel() {
        let prac = PracConfig::builder()
            .rowhammer_threshold(1024)
            .policy(MitigationPolicy::Para {
                one_in: 8,
                seed: 0xABCD,
            })
            .build();
        let mut device = DramDeviceConfig::tiny_for_tests(prac);
        device.organization = device.organization.with_channels(4);
        let sub = MemorySubsystem::new(device, ControllerConfig::default());
        // Channel 0 keeps the configured seed verbatim (single-channel
        // bit-identity); the other channels draw from distinct streams.
        let seeds: Vec<u64> = sub
            .controllers()
            .iter()
            .map(|c| match c.policy() {
                MitigationPolicy::Para { seed, .. } => *seed,
                other => panic!("unexpected policy {other:?}"),
            })
            .collect();
        assert_eq!(seeds[0], 0xABCD);
        let unique: std::collections::HashSet<u64> = seeds.iter().copied().collect();
        assert_eq!(unique.len(), 4, "per-channel PARA seeds must differ");
    }

    /// Only due channels may be polled — and polling a channel before its
    /// registered wake-up must be a no-op (the purity contract per-channel
    /// scheduling rests on).
    #[test]
    fn non_due_channels_are_left_untouched() {
        let mut sub = subsystem(2);
        let pa = (0..64)
            .map(|i| i * 64)
            .find(|&pa| sub.route(pa) == 1)
            .expect("some line routes to channel 1");
        assert!(sub.enqueue(1, MemoryRequest::read(1, pa, 0, 0)));
        let mut completed = Vec::new();
        // Poll only channel 0 (idle): nothing may happen anywhere, and the
        // unpolled channel's wake-up entry is left alone.
        let mut wakes = vec![Some(7), Some(7)];
        for now in 0..2_000 {
            sub.tick_due(now, &[true, false], &mut completed, &mut wakes);
        }
        assert!(completed.is_empty());
        assert_eq!(sub.aggregated_controller_stats().reads_completed, 0);
        assert_eq!(wakes, [None, Some(7)]);
        // Now poll channel 1 as well: the read completes.
        for now in 2_000..4_000 {
            sub.tick_due(now, &[true, true], &mut completed, &mut wakes);
        }
        assert_eq!(completed.len(), 1);
    }

    #[test]
    fn polls_hand_back_each_channels_own_wake_up() {
        let mut sub = subsystem(2);
        // Idle subsystem with refresh disabled: no wake-ups at all.
        assert_eq!(poll_all(&mut sub, 0..1, &mut Vec::new()), [None, None]);
        // Work on channel 1 only: only channel 1 wakes, exactly when its
        // controller says it will.
        let pa = (0..64)
            .map(|i| i * 64)
            .find(|&pa| sub.route(pa) == 1)
            .expect("some line routes to channel 1");
        sub.enqueue(1, MemoryRequest::read(1, pa, 0, 1));
        let wakes = poll_all(&mut sub, 1..2, &mut Vec::new());
        assert_eq!(wakes[0], None);
        assert!(wakes[1].is_some());
        assert_eq!(wakes[1], sub.controller(1).next_event_at(1));
    }
}
