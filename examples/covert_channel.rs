//! PRACLeak covert channels: transmit data between a trojan and a spy through
//! PRAC's Alert Back-Off timing channel (Section 3.2 / Table 2 of the paper).
//!
//! Run with `cargo run --release --example covert_channel`.  The condensed,
//! assertion-checked form lives as a runnable rustdoc example on the
//! umbrella crate ("The covert channel" in `src/lib.rs`), so
//! `cargo test --doc` keeps it working.

use prac_timing::prelude::*;
use pracleak::covert::run_covert_channel;

fn main() {
    println!("PRACLeak covert channels (trojan -> spy through ABO-RFM latency spikes)");
    println!();
    println!(
        "{:<28} {:>6} {:>18} {:>14} {:>12}",
        "channel", "NBO", "period (us)", "bitrate (Kbps)", "error rate"
    );

    // A reduced sweep of Table 2: both channel variants at two Back-Off
    // thresholds. The full sweep (NBO in {256, 512, 1024}) is regenerated by
    // `cargo run --release --bin prac-bench -- run table2 --full`.
    for nbo in [256u32, 512] {
        for kind in [
            CovertChannelKind::ActivityBased,
            CovertChannelKind::ActivationCountBased,
        ] {
            let result = run_covert_channel(kind, nbo, 16, 0xC0FFEE);
            println!(
                "{:<28} {:>6} {:>18.1} {:>14.1} {:>11.2}%",
                format!("{kind:?}"),
                nbo,
                result.transmission_period_us,
                result.bitrate_kbps,
                result.error_rate() * 100.0
            );
        }
    }

    println!();
    println!("The activity-based channel sends one bit per window (ABO present or absent);");
    println!("the activation-count channel encodes log2(NBO) bits in the shared row's");
    println!("activation counter and therefore achieves a higher bitrate despite the");
    println!("longer transmission period, matching the trends of Table 2.");
}
