//! Microkernels that drive the engine's own hot-path APIs.
//!
//! Each kernel repeats the exact call sequence the event engine or the
//! controller makes, and reports the median over several timed batches.

use std::hint::black_box;
use std::time::Instant;

use dram_sim::command::DramCommand;
use dram_sim::device::{DramDevice, DramDeviceConfig};
use dram_sim::org::DramAddress;
use memctrl::scheduler::{FrFcfsScheduler, SchedulerCandidate};
use system_sim::event::EventWheel;

use crate::stats::median;

const BATCHES: usize = 7;
const WHEEL_ROUNDS: u64 = 200_000;
const REDUCE_ROUNDS: u64 = 20_000;
const SCAN_ROUNDS: u64 = 20_000;
/// The controller's queue capacity in the paper configuration.
const SCAN_CANDIDATES: usize = 64;
/// Wheel slots ahead of the per-channel ones: the CPU cluster and the
/// backlog forwarding glue.
const CHANNEL_SLOT_BASE: usize = 2;

fn median_ns_per_round(rounds: u64, mut batch: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            batch(rounds);
            started.elapsed().as_nanos() as f64 / rounds as f64
        })
        .collect();
    median(&samples)
}

/// One engine round per iteration, as `run_event_from` makes it: re-arm the
/// cluster slot, re-arm every due channel's slot, arm or disarm forwarding,
/// pop the next wake-up, then mark the channels armed at that tick due.
pub fn wheel_round_ns(channels: usize) -> f64 {
    median_ns_per_round(WHEEL_ROUNDS, |rounds| {
        let mut wheel = EventWheel::with_slots(CHANNEL_SLOT_BASE + channels);
        let mut due = vec![true; channels];
        let mut now = 0u64;
        for round in 0..rounds {
            wheel.reregister_slot(0, Some(now + 3));
            for (channel, is_due) in due.iter().enumerate() {
                if *is_due {
                    let wake = now + 1 + (round + channel as u64) % 4;
                    wheel.reregister_slot(CHANNEL_SLOT_BASE + channel, Some(wake));
                }
            }
            wheel.reregister_slot(1, (round % 5 == 0).then_some(now + 2));
            let next = wheel
                .next_after(black_box(now))
                .expect("the cluster slot is always armed");
            for (channel, is_due) in due.iter_mut().enumerate() {
                *is_due = wheel.armed_at(CHANNEL_SLOT_BASE + channel) == Some(next);
            }
            now = next;
        }
        black_box(now);
    })
}

/// `DramDevice::next_bank_transition_at` over the paper geometry with every
/// other bank open, so both sides of the open/precharged select stay live.
pub fn min_reduce_ns() -> f64 {
    let config = DramDeviceConfig::paper_default();
    let org = config.organization;
    let mut device = DramDevice::new(config);
    for bank in (0..org.total_banks()).step_by(2) {
        let address = DramAddress {
            channel: 0,
            rank: bank / org.banks_per_rank(),
            bank_group: (bank / org.banks_per_group) % org.bank_groups,
            bank: bank % org.banks_per_group,
            row: bank,
            column: 0,
        };
        let _ = device.issue(DramCommand::Activate(address), u64::from(bank) * 1_000);
    }
    median_ns_per_round(REDUCE_ROUNDS, |rounds| {
        let mut acc = 0u64;
        for _ in 0..rounds {
            acc = acc.wrapping_add(black_box(&device).next_bank_transition_at());
        }
        black_box(acc);
    })
}

/// `FrFcfsScheduler::choose_from` over a full controller queue.
pub fn scan_ns() -> f64 {
    let org = DramDeviceConfig::paper_default().organization;
    let candidates: Vec<SchedulerCandidate> = (0..SCAN_CANDIDATES)
        .map(|index| SchedulerCandidate {
            queue_index: index,
            address: DramAddress {
                channel: 0,
                rank: (index as u32) % org.ranks,
                bank_group: (index as u32) % org.bank_groups,
                bank: (index as u32) % org.banks_per_group,
                row: index as u32,
                column: 0,
            },
            row_hit: index % 3 == 0,
            arrival_tick: (97 * index as u64) % 1_024,
        })
        .collect();
    let scheduler = FrFcfsScheduler::paper_default();
    median_ns_per_round(SCAN_ROUNDS, |rounds| {
        let mut picked = 0usize;
        for _ in 0..rounds {
            let chosen = scheduler
                .choose_from(black_box(candidates.iter().copied()))
                .expect("a full queue schedules something");
            picked = picked.wrapping_add(chosen.queue_index);
        }
        black_box(picked);
    })
}
