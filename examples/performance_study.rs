//! A reduced version of the paper's performance study (Figure 10): run a few
//! workloads of each memory-intensity class under the insecure baselines
//! (ABO-Only, ABO+ACB-RFM) and under TPRAC, and report performance normalised
//! to a PRAC system without Alert Back-Off.
//!
//! Run with `cargo run --release --example performance_study`.
//! The full 50-workload sweep is regenerated by
//! `cargo run --release --bin prac-bench -- run fig10 --full`.

use prac_timing::prelude::*;
use system_sim::run_workload_normalized;
use workloads::quick_suite;

fn main() {
    let instructions_per_core: u64 = 60_000;
    let setups = MitigationSetup::figure10_set();
    let suite = quick_suite();

    println!(
        "Normalised performance at NRH = 1024 ({} instructions/core, {} workloads)",
        instructions_per_core,
        suite.len()
    );
    println!();
    print!("{:<16} {:>10}", "workload", "intensity");
    for setup in &setups {
        print!(" {:>22}", setup.label());
    }
    println!();

    let mut sums = vec![0.0f64; setups.len()];
    for spec in &suite {
        print!(
            "{:<16} {:>10}",
            spec.workload.name,
            format!("{:?}", spec.intensity)
        );
        for (i, setup) in setups.iter().enumerate() {
            let config = ExperimentConfig::new(setup.clone(), instructions_per_core);
            let (normalized, _, _) =
                run_workload_normalized(&config, &spec.workload, 42).expect("setup resolves");
            sums[i] += normalized;
            print!(" {:>22.3}", normalized);
        }
        println!();
    }

    println!();
    print!("{:<27}", "geometric-ish mean (avg)");
    for sum in &sums {
        print!(" {:>22.3}", sum / suite.len() as f64);
    }
    println!();
    println!();
    println!("Expected shape (paper, Figure 10): ABO-Only ~1.00, ABO+ACB-RFM ~0.99,");
    println!("TPRAC ~0.96-0.97 on average, with memory-intensive workloads closer to 0.92-0.94.");
}
