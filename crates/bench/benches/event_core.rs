//! Criterion micro-benchmarks for the event-core hot paths, each on the code
//! the engine runs: the event engine's wheel round, the branchless
//! per-device bank min-reduce, the controller's incremental FR-FCFS pick
//! and a load's walk down the CPU cache hierarchy.  CI runs them as the kernel smoke gate; end-to-end and per-layer
//! performance is measured by `perfbench/`.

use cpu_sim::cache::Cache;
use cpu_sim::config::CpuConfig;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dram_sim::command::DramCommand;
use dram_sim::device::{DramDevice, DramDeviceConfig};
use dram_sim::org::DramAddress;
use memctrl::scheduler::{FrFcfsIndex, FrFcfsScheduler, QUEUE_CAPACITY};
use system_sim::event::EventWheel;

/// One event-engine round for a system with `channels` channels, as
/// `SystemSimulation::run_event_from` makes it: slots 0 and 1 (cluster,
/// forwarding) plus one slot per channel; re-arm the cluster and every due
/// channel, arm or disarm forwarding, pop the next wake-up, then read back
/// which slots fired.
fn wheel_rounds(channels: usize, rounds: u64) -> u64 {
    let mut wheel = EventWheel::with_slots(2 + channels);
    let mut due = vec![true; channels];
    let mut cluster_due = true;
    let mut now = 0u64;
    for round in 0..rounds {
        if cluster_due {
            wheel.reregister_slot(0, Some(now + 3));
        }
        for (channel, is_due) in due.iter().enumerate() {
            if *is_due {
                let wake = now + 1 + (round + channel as u64) % 4;
                wheel.reregister_slot(2 + channel, Some(wake));
            }
        }
        wheel.reregister_slot(1, (round % 5 == 0).then_some(now + 2));
        let next = wheel
            .next_after(black_box(now))
            .expect("the cluster slot is always armed");
        cluster_due = wheel.armed_at(0) == Some(next);
        for (channel, is_due) in due.iter_mut().enumerate() {
            *is_due = wheel.armed_at(2 + channel) == Some(next);
        }
        now = next;
    }
    now
}

/// The engine's wheel round at one and four channels (the fig10 and the
/// widest scaling shapes).
fn bench_wheel_push_pop(c: &mut Criterion) {
    for channels in [1usize, 4] {
        c.bench_function(&format!("event_wheel_round_{channels}ch_x1000"), |b| {
            b.iter(|| black_box(wheel_rounds(channels, 1000)));
        });
    }
}

/// The device-wide `next_transition_at` min-reduce over the full paper
/// geometry (128 banks), with half the banks open so both sides of the
/// branchless open/precharged select stay live.
fn bench_bank_min_reduce(c: &mut Criterion) {
    let mut device = DramDevice::new(DramDeviceConfig::paper_default());
    let org = device.config().organization;
    for bank in (0..org.total_banks()).step_by(2) {
        let addr = DramAddress {
            channel: 0,
            rank: bank / org.banks_per_rank(),
            bank_group: (bank / org.banks_per_group) % org.bank_groups,
            bank: bank % org.banks_per_group,
            row: bank,
            column: 0,
        };
        device
            .issue(DramCommand::Activate(addr), u64::from(bank) * 1_000)
            .unwrap();
    }
    c.bench_function("bank_min_reduce_128banks_x1000", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(black_box(device.next_bank_transition_at()));
            }
            black_box(acc)
        });
    });
}

/// The controller's FR-FCFS pick on a saturated 64-request queue over the
/// paper geometry (128 banks): [`FrFcfsScheduler::choose`] over the
/// [`FrFcfsIndex`], plus the index upkeep of serving the chosen request
/// (its column command, its completion's `swap_remove` and the enqueue
/// that refills the queue).  Requests arrive in pairs that tie on their
/// arrival tick, and a third of the banks hold row 0 open, so a few of the
/// 64 requests are row hits, as in a saturated fig10 queue.
fn bench_scheduler_pick(c: &mut Criterion) {
    let banks = DramDeviceConfig::paper_default().organization.total_banks();
    let request = |n: u64| {
        let bank = (n * 37 % u64::from(banks)) as u32;
        let row = (n % 8) as u32;
        (n / 2, bank, row, bank.is_multiple_of(3) && row == 0)
    };
    let mut index = FrFcfsIndex::new(banks);
    for n in 0..QUEUE_CAPACITY as u64 {
        let (arrival_tick, bank, row, row_hit) = request(n);
        index.push(arrival_tick, bank, row, row_hit);
    }
    let mut next = QUEUE_CAPACITY as u64;
    let scheduler = FrFcfsScheduler::paper_default();
    c.bench_function("scheduler_pick_64queue_x100", |b| {
        b.iter(|| {
            let mut picked = 0usize;
            for _ in 0..100 {
                let chosen = scheduler.choose(black_box(&index)).unwrap();
                picked = picked.wrapping_add(chosen);
                index.column_issued(chosen);
                index.swap_remove(chosen);
                let (arrival_tick, bank, row, row_hit) = request(next);
                index.push(arrival_tick, bank, row, row_hit);
                next += 1;
            }
            black_box(picked)
        });
    });
}

/// A load's walk down the paper's Table 3 hierarchy (L1D 48 KiB 12-way,
/// L2 512 KiB 8-way, LLC 8 MiB 16-way SRRIP), as the core makes it:
/// [`Cache::access`] at each level until one hits.  The seeded address
/// stream mixes a 32 KiB hot set (L1D hits), a 4 MiB warm set (L2/LLC hits)
/// and scattered lines over 4 GiB (misses everywhere, with evictions).
fn bench_cache_hierarchy(c: &mut Criterion) {
    let config = CpuConfig::paper_default();
    let (mut l1d, mut l2, mut llc) = (
        Cache::new(config.l1d),
        Cache::new(config.l2),
        Cache::new(config.llc),
    );
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let stream: Vec<u64> = (0..4096)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 10 {
                0..=5 => (state >> 40) & ((32 << 10) - 1),
                6..=8 => (1 << 30) + ((state >> 32) & ((4 << 20) - 1)),
                _ => state >> 32,
            }
        })
        .collect();
    let mut cursor = 0usize;
    c.bench_function("cache_hierarchy_access_x1000", |b| {
        b.iter(|| {
            let mut hits = 0u32;
            for _ in 0..1000 {
                let addr = black_box(stream[cursor]);
                cursor = (cursor + 1) % stream.len();
                hits += u32::from(
                    l1d.access(addr, false).is_hit()
                        || l2.access(addr, false).is_hit()
                        || llc.access(addr, false).is_hit(),
                );
            }
            black_box(hits)
        });
    });
}

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_wheel_push_pop,
              bench_bank_min_reduce,
              bench_scheduler_pick,
              bench_cache_hierarchy
}
criterion_main!(benches);
