//! Named device timing profiles and the on-die ECC post-breach model.
//!
//! Real DDR5 parts diverge from the JEDEC baseline in exactly the knobs
//! that matter for RowHammer defence economics: refresh blocking time
//! (tRFC), RFM cadence (tRFMab), which PRAC levels the part implements,
//! whether rank-level constraints (tFAW, staggered refresh) bite, and
//! whether on-die ECC absorbs part of a breach.  [`DeviceProfile`] names
//! three such parts:
//!
//! * [`DeviceProfile::JedecBaseline`] — exactly the Table 3 DDR5-8000B
//!   timing set the rest of the workspace defaults to.  No tFAW, no
//!   refresh staggering, no on-die ECC: selecting it is bit-identical to
//!   not selecting any profile at all (the campaign cache keys rely on
//!   this — the baseline is omitted from canonical scenario JSON).
//! * [`DeviceProfile::VendorA`] — a fast-refresh part: shorter tRFC and
//!   tRFMab, rank-staggered refresh, a tFAW window, 128-bit on-die ECC
//!   codewords.  Supports only PRAC-1 and PRAC-2.
//! * [`DeviceProfile::VendorB`] — a dense, slow-refresh part: longer tRFC,
//!   slower RFM, a wider tFAW window, 256-bit on-die ECC codewords.  All
//!   PRAC levels supported.
//!
//! The on-die ECC model is a *post-breach metric layer*, not a behavioural
//! change: the simulation runs identically, and [`OnDieEcc::adjudicate`]
//! afterwards converts activation overshoot beyond `NRH` into estimated
//! raw bit flips, scatters them deterministically (seeded) over the row's
//! SEC codewords, and splits them into flips-corrected (singleton
//! codewords) vs flips-escaped (codewords holding two or more flips, which
//! single-error-correcting codes cannot repair).

use prac_core::config::PracLevel;
use prac_core::timing::{ns_to_ticks, DramTimingSummary};
use serde::{Deserialize, Serialize};

use crate::org::DramOrganization;
use crate::timing::DramTimingParams;

/// A named device timing profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum DeviceProfile {
    /// The Table 3 DDR5-8000B timing set; the workspace default.
    #[default]
    JedecBaseline,
    /// Fast-refresh vendor part with 128-bit on-die ECC codewords.
    VendorA,
    /// Dense slow-refresh vendor part with 256-bit on-die ECC codewords.
    VendorB,
}

impl DeviceProfile {
    /// Stable kebab-case slug (scenario JSON, CLI).
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            DeviceProfile::JedecBaseline => "jedec-baseline",
            DeviceProfile::VendorA => "vendor-a",
            DeviceProfile::VendorB => "vendor-b",
        }
    }

    /// Human-readable label (reports, listings).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DeviceProfile::JedecBaseline => "JEDEC baseline",
            DeviceProfile::VendorA => "Vendor A",
            DeviceProfile::VendorB => "Vendor B",
        }
    }

    /// One-line description for listings.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            DeviceProfile::JedecBaseline => {
                "Table 3 DDR5-8000B; no tFAW, no stagger, no on-die ECC"
            }
            DeviceProfile::VendorA => {
                "fast refresh (tRFC 350ns), staggered ranks, 128b ECC; PRAC-1/2 only"
            }
            DeviceProfile::VendorB => {
                "slow refresh (tRFC 560ns), wide tFAW, 256b ECC; all PRAC levels"
            }
        }
    }

    /// Parses a CLI / scenario-JSON slug.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "jedec-baseline" | "jedec" | "baseline" => Some(DeviceProfile::JedecBaseline),
            "vendor-a" => Some(DeviceProfile::VendorA),
            "vendor-b" => Some(DeviceProfile::VendorB),
            _ => None,
        }
    }

    /// The full timing parameter set of this profile.
    ///
    /// [`DeviceProfile::JedecBaseline`] returns
    /// [`DramTimingParams::ddr5_8000b`] verbatim — the 1:1 identity the
    /// golden gates pin down.
    #[must_use]
    pub fn timing(self) -> DramTimingParams {
        let base = DramTimingParams::ddr5_8000b();
        match self {
            DeviceProfile::JedecBaseline => base,
            DeviceProfile::VendorA => DramTimingParams {
                t_rfc: ns_to_ticks(350.0),
                t_rfmab: ns_to_ticks(300.0),
                // tFAW of 4x tRRD plus slack; refresh staggered a quarter
                // of the (shortened) tRFC per rank.
                t_faw: ns_to_ticks(13.0),
                refresh_stagger: ns_to_ticks(87.5),
                ..base
            },
            DeviceProfile::VendorB => DramTimingParams {
                t_rfc: ns_to_ticks(560.0),
                t_rfmab: ns_to_ticks(400.0),
                t_faw: ns_to_ticks(21.0),
                refresh_stagger: 0,
                ..base
            },
        }
    }

    /// The nanosecond timing summary the security solver sizes mitigations
    /// with, for the paper device's rows per bank.
    ///
    /// [`DeviceProfile::JedecBaseline`] returns
    /// [`DramTimingSummary::ddr5_8000b`], whose ns constants are authored
    /// directly rather than derived from ticks, so the default path stays
    /// bit-identical; vendor profiles derive theirs from [`Self::timing`].
    #[must_use]
    pub fn timing_summary(self) -> DramTimingSummary {
        match self {
            DeviceProfile::JedecBaseline => DramTimingSummary::ddr5_8000b(),
            DeviceProfile::VendorA | DeviceProfile::VendorB => self
                .timing()
                .summary(DramOrganization::ddr5_32gb_quad_rank().rows_per_bank),
        }
    }

    /// Whether this part implements `level`.
    #[must_use]
    pub fn supports_prac_level(self, level: PracLevel) -> bool {
        match self {
            DeviceProfile::JedecBaseline | DeviceProfile::VendorB => true,
            DeviceProfile::VendorA => matches!(level, PracLevel::One | PracLevel::Two),
        }
    }

    /// The on-die ECC configuration, when the part has one.
    #[must_use]
    pub fn on_die_ecc(self) -> Option<OnDieEcc> {
        match self {
            DeviceProfile::JedecBaseline => None,
            DeviceProfile::VendorA => Some(OnDieEcc {
                codeword_bits: 128,
                acts_per_flip: 64,
            }),
            DeviceProfile::VendorB => Some(OnDieEcc {
                codeword_bits: 256,
                acts_per_flip: 48,
            }),
        }
    }

    /// Every named profile, baseline first.
    #[must_use]
    pub fn registry() -> [DeviceProfile; 3] {
        [
            DeviceProfile::JedecBaseline,
            DeviceProfile::VendorA,
            DeviceProfile::VendorB,
        ]
    }
}

/// Single-error-correcting on-die ECC, as a post-breach adjudication model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OnDieEcc {
    /// Data bits per SEC codeword.
    pub codeword_bits: u32,
    /// Estimated activations beyond `NRH` per raw bit flip in the victim
    /// row (the disturbance slope above threshold).
    pub acts_per_flip: u64,
}

/// Outcome of adjudicating one breached row through on-die ECC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EccAdjudication {
    /// Estimated raw bit flips induced in the victim row.
    pub raw_flips: u64,
    /// Flips in codewords holding exactly one flip: silently corrected.
    pub flips_corrected: u64,
    /// Flips in codewords holding two or more flips: beyond SEC, escaping
    /// to the host.
    pub flips_escaped: u64,
}

impl OnDieEcc {
    /// Adjudicates a breach: `overshoot` activations beyond `NRH` on the
    /// hottest row of a `row_bits`-bit row.
    ///
    /// Deterministic in `(overshoot, row_bits, seed)`: raw flips are
    /// `overshoot / acts_per_flip` (capped at the row size), and each flip
    /// lands in the codeword selected by an FNV-1a hash of the seed and
    /// flip ordinal.  Flips that share a codeword overwhelm single-error
    /// correction and escape.
    #[must_use]
    pub fn adjudicate(&self, overshoot: u64, row_bits: u64, seed: u64) -> EccAdjudication {
        let codewords = (row_bits / u64::from(self.codeword_bits.max(1))).max(1);
        let raw_flips = (overshoot / self.acts_per_flip.max(1)).min(row_bits);
        let mut per_codeword = vec![0u64; usize::try_from(codewords).unwrap_or(1)];
        for flip in 0..raw_flips {
            let slot = fnv1a64(seed, flip) % codewords;
            per_codeword[usize::try_from(slot).expect("codeword index fits usize")] += 1;
        }
        let mut corrected = 0u64;
        let mut escaped = 0u64;
        for &count in &per_codeword {
            match count {
                0 => {}
                1 => corrected += 1,
                n => escaped += n,
            }
        }
        EccAdjudication {
            raw_flips,
            flips_corrected: corrected,
            flips_escaped: escaped,
        }
    }
}

/// FNV-1a over the little-endian bytes of `(seed, ordinal)`.
fn fnv1a64(seed: u64, ordinal: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for byte in seed.to_le_bytes().into_iter().chain(ordinal.to_le_bytes()) {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_timing_is_bit_identical_to_ddr5_8000b() {
        assert_eq!(
            DeviceProfile::JedecBaseline.timing(),
            DramTimingParams::ddr5_8000b()
        );
        assert!(DeviceProfile::JedecBaseline.on_die_ecc().is_none());
        assert_eq!(
            DeviceProfile::JedecBaseline.timing_summary(),
            DramTimingSummary::ddr5_8000b()
        );
    }

    #[test]
    fn vendor_timing_summaries_derive_from_their_tick_timing() {
        let rows = DramOrganization::ddr5_32gb_quad_rank().rows_per_bank;
        for profile in [DeviceProfile::VendorA, DeviceProfile::VendorB] {
            let summary = profile.timing_summary();
            assert_eq!(summary, profile.timing().summary(rows));
            assert_ne!(
                summary.t_rfmab_ns,
                DramTimingSummary::ddr5_8000b().t_rfmab_ns
            );
        }
    }

    #[test]
    fn vendor_profiles_diverge_and_stay_consistent() {
        let base = DramTimingParams::ddr5_8000b();
        for profile in [DeviceProfile::VendorA, DeviceProfile::VendorB] {
            let t = profile.timing();
            assert!(t.is_consistent(), "{}: inconsistent timing", profile.slug());
            assert_ne!(t.t_rfc, base.t_rfc, "{}: tRFC must diverge", profile.slug());
            assert!(t.t_faw > 0, "{}: vendor parts enforce tFAW", profile.slug());
            assert!(profile.on_die_ecc().is_some());
        }
        assert_ne!(
            DeviceProfile::VendorA.timing().t_rfc,
            DeviceProfile::VendorB.timing().t_rfc
        );
    }

    #[test]
    fn slugs_round_trip_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for profile in DeviceProfile::registry() {
            assert!(seen.insert(profile.slug()), "duplicate slug");
            assert_eq!(DeviceProfile::parse(profile.slug()), Some(profile));
            assert!(!profile.label().is_empty());
            assert!(!profile.summary().is_empty());
        }
        assert_eq!(DeviceProfile::parse("vendor-c"), None);
    }

    #[test]
    fn prac_level_support_matrix() {
        for level in PracLevel::all() {
            assert!(DeviceProfile::JedecBaseline.supports_prac_level(level));
            assert!(DeviceProfile::VendorB.supports_prac_level(level));
        }
        assert!(DeviceProfile::VendorA.supports_prac_level(PracLevel::One));
        assert!(DeviceProfile::VendorA.supports_prac_level(PracLevel::Two));
        assert!(!DeviceProfile::VendorA.supports_prac_level(PracLevel::Four));
    }

    #[test]
    fn ecc_adjudication_is_deterministic_and_conserves_flips() {
        let ecc = DeviceProfile::VendorA.on_die_ecc().unwrap();
        let row_bits = 8 * 1024 * 8; // one 8 KB row
        let a = ecc.adjudicate(10_000, row_bits, 0x5EED);
        let b = ecc.adjudicate(10_000, row_bits, 0x5EED);
        assert_eq!(a, b, "same inputs must adjudicate identically");
        assert_eq!(a.raw_flips, 10_000 / ecc.acts_per_flip);
        assert_eq!(a.flips_corrected + a.flips_escaped, a.raw_flips);
        let other_seed = ecc.adjudicate(10_000, row_bits, 0x5EED + 1);
        assert_eq!(other_seed.raw_flips, a.raw_flips);
    }

    #[test]
    fn no_overshoot_means_no_flips() {
        let ecc = DeviceProfile::VendorB.on_die_ecc().unwrap();
        let out = ecc.adjudicate(0, 8 * 1024 * 8, 7);
        assert_eq!(out, EccAdjudication::default());
    }

    #[test]
    fn dense_flip_fields_escape_correction() {
        let ecc = OnDieEcc {
            codeword_bits: 128,
            acts_per_flip: 1,
        };
        // Far more flips than codewords: nearly all codewords hold >= 2
        // flips, so escapes dominate corrections.
        let row_bits = 128 * 8; // 8 codewords
        let out = ecc.adjudicate(1_000, row_bits, 42);
        assert_eq!(out.raw_flips, 1_000);
        assert!(out.flips_escaped > out.flips_corrected);
    }
}
