//! Integration tests for the analytical pieces: the Figure 7 security model,
//! the energy model and the storage-overhead accounting, exercised through
//! the public umbrella API.

use prac_core::energy::{EnergyInputs, EnergyModel};
use prac_core::overhead::StorageModel;
use prac_core::security::{figure7_windows, CounterResetPolicy};
use prac_timing::prelude::*;

#[test]
fn figure7_series_has_the_published_shape() {
    let timing = DramTimingSummary::ddr5_8000b();
    let with_reset = SecurityAnalysis::with_back_off_threshold(
        4096,
        &timing,
        CounterResetPolicy::ResetEveryTrefw,
    );
    let without_reset =
        SecurityAnalysis::with_back_off_threshold(4096, &timing, CounterResetPolicy::NoReset);
    let windows = figure7_windows();
    let reset_series = with_reset.tmax_series(&windows);
    let noreset_series = without_reset.tmax_series(&windows);

    // Monotone in the window, no-reset dominates reset, and the gap widens
    // with the window (the paper's three qualitative observations).
    for (r, n) in reset_series.iter().zip(&noreset_series) {
        assert!(r.1 <= n.1);
    }
    for series in [&reset_series, &noreset_series] {
        for pair in series.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
    }
    let gap_small = noreset_series[0].1 - reset_series[0].1;
    let gap_large = noreset_series[5].1 - reset_series[5].1;
    assert!(gap_large >= gap_small);
    // Magnitudes: hundreds at 1 tREFI, thousands at 4 tREFI.
    assert!((300..1500).contains(&reset_series[3].1));
    assert!((1200..6000).contains(&noreset_series[5].1));
}

#[test]
fn tb_window_solver_covers_the_full_nrh_sweep() {
    let timing = DramTimingSummary::ddr5_8000b();
    let mut previous = 0.0;
    for nrh in [128u32, 256, 512, 1024, 2048, 4096] {
        let solution = SecurityAnalysis::with_back_off_threshold(
            nrh,
            &timing,
            CounterResetPolicy::ResetEveryTrefw,
        )
        .solve_tb_window()
        .unwrap_or_else(|e| panic!("NRH={nrh} should be solvable: {e}"));
        assert!(solution.tmax < u64::from(nrh));
        assert!(solution.tb_window_trefi > previous);
        previous = solution.tb_window_trefi;
    }
}

#[test]
fn energy_model_reproduces_table5_monotonicity() {
    // Synthesise the RFM frequencies implied by the per-NRH TB-Windows and
    // check the total energy overhead decreases monotonically with NRH.
    let timing = DramTimingSummary::ddr5_8000b();
    let model = EnergyModel::default();
    let execution_ns = 50_000_000.0;
    let baseline = EnergyInputs {
        activations: 2_000_000,
        reads_writes: 8_000_000,
        refreshes: (execution_ns / timing.t_refi_ns) as u64,
        rfms: 0,
        banks_per_rfm: 0,
        execution_time_ns: execution_ns,
    };
    let mut last_total = f64::MAX;
    for nrh in [128u32, 512, 1024, 4096] {
        let solution = SecurityAnalysis::with_back_off_threshold(
            nrh,
            &timing,
            CounterResetPolicy::ResetEveryTrefw,
        )
        .solve_tb_window()
        .unwrap();
        let slowdown = 1.0 + solution.bandwidth_loss;
        let protected = EnergyInputs {
            rfms: (execution_ns / solution.tb_window_ns) as u64,
            banks_per_rfm: 128,
            execution_time_ns: execution_ns * slowdown,
            ..baseline
        };
        let overhead = model.overhead(&baseline, &protected);
        assert!(
            overhead.total < last_total,
            "overhead must fall as NRH rises"
        );
        assert!(overhead.total > 0.0);
        last_total = overhead.total;
    }
}

#[test]
fn storage_overhead_matches_section_6_8() {
    let timing = DramTimingSummary::ddr5_8000b();
    let model = StorageModel::ddr5_32gb(&timing, 128);
    let tprac = model.tprac_overhead(&timing, QueueKind::SingleEntryFrequency);
    // A ~24-bit controller register plus one ~29-bit entry per bank:
    // well under a kilobyte for the whole channel.
    assert!(tprac.controller_bits <= 24);
    assert!(tprac.total_bytes() < 1024);
    // The idealised priority queue is orders of magnitude bigger — the reason
    // the paper's single-entry design matters.
    let ideal = model.tprac_overhead(&timing, QueueKind::Priority);
    assert!(ideal.dram_bits_total() > tprac.dram_bits_total() * 10_000);
}
