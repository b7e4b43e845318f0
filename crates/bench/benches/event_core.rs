//! Criterion micro-benchmarks for the event-core hot paths reshaped by the
//! data-layout pass: the event engine's wheel round, the branchless
//! per-device bank min-reduce and the controller's FR-FCFS lane pick.  CI runs them as the kernel smoke gate; end-to-end and per-layer
//! performance is measured by `perfbench/`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dram_sim::command::DramCommand;
use dram_sim::device::{DramDevice, DramDeviceConfig};
use dram_sim::org::DramAddress;
use memctrl::scheduler::{FrFcfsScheduler, ScanLane};
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

/// One [`FrFcfsScheduler::choose_lane`] pass over a full 64-request queue
/// against a paper-geometry device's open rows — the scan the controller
/// makes whenever its cached FR-FCFS choice is stale.  A third of the banks
/// hold a lane's row open, a third hold another row, the rest are closed;
/// every 32nd request is already in flight.
fn bench_scheduler_scan(c: &mut Criterion) {
    let mut device = DramDevice::new(DramDeviceConfig::paper_default());
    let org = device.config().organization;
    let lanes: Vec<ScanLane> = (0..64u32)
        .map(|index| ScanLane {
            arrival_tick: (97 * u64::from(index)) % 1_024,
            bank: if index % 32 == 31 {
                ScanLane::ISSUED
            } else {
                (index * 2) % org.total_banks()
            },
            row: index,
        })
        .collect();
    for (index, lane) in lanes
        .iter()
        .enumerate()
        .filter(|(i, lane)| i % 3 != 2 && !lane.is_issued())
    {
        let addr = DramAddress {
            channel: 0,
            rank: lane.bank / org.banks_per_rank(),
            bank_group: (lane.bank / org.banks_per_group) % org.bank_groups,
            bank: lane.bank % org.banks_per_group,
            row: if index % 3 == 0 {
                lane.row
            } else {
                lane.row + 1
            },
            column: 0,
        };
        device
            .issue(DramCommand::Activate(addr), index as u64 * 1_000)
            .unwrap();
    }
    let scheduler = FrFcfsScheduler::paper_default();
    c.bench_function("scheduler_scan_64cand_x100", |b| {
        b.iter(|| {
            let mut picked = 0usize;
            for _ in 0..100 {
                let chosen = scheduler
                    .choose_lane(black_box(&lanes), black_box(device.open_rows()))
                    .unwrap();
                picked = picked.wrapping_add(chosen);
            }
            black_box(picked)
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
              bench_scheduler_scan
}
criterion_main!(benches);
