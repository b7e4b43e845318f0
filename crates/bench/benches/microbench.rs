//! Criterion micro-benchmarks for the hot data structures and kernels of the
//! simulation stack: the bank's PRAC counter and mitigation-queue update,
//! DRAM command issue, address mapping, scheduler picks, the analytical
//! TB-Window solver.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dram_sim::bank::BankMeta;
use dram_sim::command::DramCommand;
use dram_sim::device::{DramDevice, DramDeviceConfig};
use dram_sim::org::DramAddress;
use memctrl::mapping::{AddressMap, MappingKind};
use prac_core::config::PracConfig;
use prac_core::security::{CounterResetPolicy, SecurityAnalysis};
use prac_core::timing::DramTimingSummary;

/// The device's per-ACT PRAC path: bump the row's counter and update the
/// single-entry queue, then drain the queue as an RFM does.
fn bench_mitigation_queue(c: &mut Criterion) {
    c.bench_function("bank_note_activation_1000_then_drain", |b| {
        b.iter(|| {
            let mut meta = BankMeta::default();
            for i in 0u32..1000 {
                meta.note_activation(black_box(i % 97));
            }
            black_box(meta.mitigate_queue_head())
        });
    });
}

fn bench_dram_activate_precharge(c: &mut Criterion) {
    let prac = PracConfig::builder().rowhammer_threshold(1 << 20).build();
    let config = DramDeviceConfig {
        prac,
        ..DramDeviceConfig::paper_default()
    };
    c.bench_function("dram_activate_precharge_cycle_x100", |b| {
        b.iter(|| {
            let mut device = DramDevice::new(config.clone());
            let org = device.config().organization;
            let timing = device.config().timing;
            let mut now = 0u64;
            for i in 0..100u32 {
                let addr = DramAddress::new(&org, 0, 0, 0, i % 1024, 0);
                device.issue(DramCommand::Activate(addr), now).unwrap();
                now += timing.t_ras;
                device.issue(DramCommand::Precharge(addr), now).unwrap();
                now += timing.t_rc - timing.t_ras;
            }
            black_box(device.stats().activations)
        });
    });
}

fn bench_address_mapping(c: &mut Criterion) {
    let org = dram_sim::org::DramOrganization::ddr5_32gb_quad_rank();
    let mop = AddressMap::new(MappingKind::Mop, org);
    let striped = AddressMap::new(MappingKind::BankStriped, org);
    c.bench_function("mop_mapping_decode_x1000", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc ^= mop.decode(black_box(i * 4096 + 64)).row as u64;
            }
            black_box(acc)
        });
    });
    c.bench_function("bank_striped_decode_x1000", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                acc ^= striped.decode(black_box(i * 4096 + 64)).row as u64;
            }
            black_box(acc)
        });
    });
    // Channel decode adds only shift/mask work on top of the 1-channel path.
    let striped4 = AddressMap::new(MappingKind::BankStriped, org.with_channels(4));
    c.bench_function("bank_striped_4ch_decode_x1000", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..1000u64 {
                let d = striped4.decode(black_box(i * 4096 + 64));
                acc ^= u64::from(d.row) ^ (u64::from(d.channel) << 32);
            }
            black_box(acc)
        });
    });
}

fn bench_tb_window_solver(c: &mut Criterion) {
    let timing = DramTimingSummary::ddr5_8000b();
    c.bench_function("tb_window_solver_nrh1024", |b| {
        b.iter(|| {
            let analysis = SecurityAnalysis::with_back_off_threshold(
                black_box(1024),
                &timing,
                CounterResetPolicy::ResetEveryTrefw,
            );
            black_box(analysis.solve_tb_window().unwrap().tb_window_trefi)
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
    targets = bench_mitigation_queue,
              bench_dram_activate_precharge,
              bench_address_mapping,
              bench_tb_window_solver
}
criterion_main!(benches);
