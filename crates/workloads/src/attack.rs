//! The attacker side of the mitigation policies: one declarative
//! [`AttackKind`] enum and the one concrete [`AttackStream`] it builds.
//!
//! A RowHammer access pattern is a deterministic stream of DRAM-coordinate
//! accesses.  [`AttackKind::stream`] builds it for an organisation, and
//! every consumer (the `pracleak` agents, the full-system attacker core,
//! the `attacks` campaign) drives the same stream:
//!
//! * **Access stream** — [`AttackStream::next_access`] returns the next
//!   [`AttackAccess`]: the [`DramAddress`] to touch, the earliest tick it
//!   should issue (bursting adversaries schedule here), and which hot row
//!   it targets (`None` for decoy / filler traffic).
//! * **Hot-row disclosure** — [`AttackStream::hot_rows`] enumerates the
//!   aggressor rows the stream pressures, so harnesses can measure
//!   aggressor coverage and check per-row activation counts against `NRH`.
//!
//! Adding a pattern means one [`AttackKind`] variant, one arm in each of the
//! stream's `match`es and one line in [`attack_registry`].
//!
//! # Determinism contract
//!
//! 1. **The stream is a pure function of the configuration.** Calling
//!    `next_access` repeatedly replays the same addresses for the same
//!    kind, organisation and seed, regardless of wall-clock or ambient
//!    entropy.
//! 2. **Randomness is seeded.** The decoy filler rows of
//!    [`AttackKind::DecoyBlast`] come from an explicit seed carried in the
//!    kind, so a scenario re-runs bit-for-bit and its campaign cache key
//!    captures the whole behaviour.
//! 3. **`now` only gates, never generates.** The `now` argument may delay an
//!    access (via [`AttackAccess::not_before`]) but never changes *which*
//!    addresses the stream visits, so trace-mode consumers (which flatten
//!    timing) and agent-mode consumers (which honour it) hammer the same
//!    rows.
//!
//! The module also owns the low-level slot-cycling arithmetic
//! ([`cycle_slot`], [`strided_slots`]) that the benign trace generator
//! ([`crate::generator::SyntheticWorkload::generate`]) shares.

use dram_sim::org::{DramAddress, DramOrganization};
use prac_core::error::ConfigError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Round-robin slot selection: the `position`-th access over `slots`
/// equivalent targets.  `slots` is clamped to at least 1.  This is the one
/// cycling primitive shared by the attack stream and by the benign trace
/// generator.
#[must_use]
pub fn cycle_slot(position: u64, slots: u64) -> u64 {
    position % slots.max(1)
}

/// Number of distinct stride-aligned slots inside a `footprint` of bytes
/// (at least 1, so degenerate footprints still produce a stream).
#[must_use]
pub fn strided_slots(footprint: u64, stride: u64) -> u64 {
    (footprint / stride.max(1)).max(1)
}

/// Number of data bits in one DRAM row of `org` — the field the on-die ECC
/// adjudication distributes post-breach bit flips over.
#[must_use]
pub fn row_bits(org: &DramOrganization) -> u64 {
    u64::from(org.columns_per_row) * u64::from(org.column_bytes) * 8
}

/// One access an attack stream wants to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackAccess {
    /// The DRAM coordinate to touch (consumers encode it to a physical
    /// address through their address mapping).
    pub address: DramAddress,
    /// Earliest tick at which the access should issue.  `0` means
    /// "immediately"; [`AttackKind::RfmPressure`] points this at the next
    /// burst window.  Consumers without a timing notion (trace generation)
    /// may ignore it — see the module determinism contract.
    pub not_before: u64,
    /// Index into [`AttackStream::hot_rows`] of the aggressor row this
    /// access targets; `None` for decoy / filler traffic.
    pub hot_row: Option<usize>,
}

/// Shared placement of every pattern: everything hammers rank 0 /
/// bank-group 0 / bank 0 of channel 0 (valid in every organisation), with
/// the victim row in the middle of the bank so neighbours exist on both
/// sides.
#[derive(Debug, Clone, Copy)]
struct Placement {
    org: DramOrganization,
    victim_row: u32,
}

impl Placement {
    fn new(org: &DramOrganization) -> Self {
        Self {
            org: *org,
            victim_row: (org.rows_per_bank / 2).max(1),
        }
    }

    /// The coordinate of `row` at the cycling `column` slot.
    fn at(&self, row: u32, position: u64) -> DramAddress {
        let row = row % self.org.rows_per_bank.max(1);
        let column = u32::try_from(cycle_slot(position, u64::from(self.org.columns_per_row)))
            .expect("column slot fits in u32");
        DramAddress::new(&self.org, 0, 0, 0, row, column)
    }

    /// A decoy filler coordinate: any bank group other than the aggressor's
    /// (bank group 0) when more than one exists, so the aggressor bank's
    /// ACB budget is untouched while the channel-wide sampler sees noise.
    fn filler(&self, rng: &mut StdRng) -> DramAddress {
        let org = self.org;
        let groups = u64::from(org.bank_groups.max(1));
        let bank_group = if groups > 1 {
            1 + u32::try_from(rng.gen_range(0..groups - 1)).expect("bank group fits")
        } else {
            0
        };
        let row = u32::try_from(rng.gen_range(0..u64::from(org.rows_per_bank.max(1))))
            .expect("row fits in u32");
        let column = u32::try_from(rng.gen_range(0..u64::from(org.columns_per_row.max(1))))
            .expect("column fits in u32");
        DramAddress::new(&org, 0, bank_group, 0, row, column)
    }
}

/// Far-aggressor accesses per near-aggressor access of
/// [`AttackKind::HalfDouble`]: the classic 8:1 ratio.
const FAR_PER_NEAR: u64 = 8;

/// The deterministic access stream of one [`AttackKind`], built by
/// [`AttackKind::stream`].
///
/// See the [module documentation](self) for the determinism contract.
#[derive(Debug, Clone)]
pub struct AttackStream {
    /// The kind, with `sides` clamped to at least 2 and `duty_percent` to
    /// 1–100.
    kind: AttackKind,
    placement: Placement,
    t_refi_ticks: u64,
    position: u64,
    /// Draws [`AttackKind::DecoyBlast`]'s filler rows; unused otherwise.
    rng: StdRng,
}

impl AttackStream {
    /// The next access of the infinite stream.  `now` is the consumer's
    /// current tick; it may gate the access via
    /// [`AttackAccess::not_before`] but never changes the address sequence.
    pub fn next_access(&mut self, now: u64) -> AttackAccess {
        let position = self.position;
        self.position += 1;
        let victim = self.placement.victim_row;
        // (row, hot-row index, accesses to that row so far): the column
        // advances once per full pass over the aggressor set, so every
        // aggressor sees the same line sequence.
        let (row, index, pass) = match self.kind {
            AttackKind::SingleSided | AttackKind::RfmPressure { .. } => (victim + 1, 0, position),
            AttackKind::DoubleSided => {
                let index = cycle_slot(position, 2);
                let row = if index == 0 {
                    victim.saturating_sub(1)
                } else {
                    victim + 1
                };
                (row, index, position / 2)
            }
            AttackKind::ManySided { sides } => {
                let index = u32::try_from(cycle_slot(position, u64::from(sides)))
                    .expect("slot fits in u32");
                (
                    victim + 2 * index,
                    u64::from(index),
                    position / u64::from(sides),
                )
            }
            AttackKind::HalfDouble => {
                let period = FAR_PER_NEAR + 1;
                if cycle_slot(position, period) < FAR_PER_NEAR {
                    (victim + 2, 0, position / period)
                } else {
                    (victim + 1, 1, position / period)
                }
            }
            AttackKind::DecoyBlast { decoys, .. } => {
                let period = u64::from(decoys) + 1;
                if cycle_slot(position, period) != 0 {
                    return AttackAccess {
                        address: self.placement.filler(&mut self.rng),
                        not_before: 0,
                        hot_row: None,
                    };
                }
                (victim + 1, 0, position / period)
            }
        };
        let not_before = match self.kind {
            AttackKind::RfmPressure { duty_percent } => self.burst_gate(now, duty_percent),
            _ => 0,
        };
        AttackAccess {
            address: self.placement.at(row, pass),
            not_before,
            hot_row: Some(usize::try_from(index).expect("hot-row index fits in usize")),
        }
    }

    /// The aggressor rows this stream pressures (column 0 coordinates), in
    /// the order [`AttackAccess::hot_row`] indexes them.  Harnesses use them
    /// to compute aggressor coverage and compare per-row activation counts
    /// against the RowHammer threshold.
    #[must_use]
    pub fn hot_rows(&self) -> Vec<DramAddress> {
        let victim = self.placement.victim_row;
        let rows: Vec<u32> = match self.kind {
            AttackKind::SingleSided
            | AttackKind::DecoyBlast { .. }
            | AttackKind::RfmPressure { .. } => vec![victim + 1],
            AttackKind::DoubleSided => vec![victim.saturating_sub(1), victim + 1],
            AttackKind::ManySided { sides } => (0..sides).map(|i| victim + 2 * i).collect(),
            AttackKind::HalfDouble => vec![victim + 2, victim + 1],
        };
        rows.into_iter()
            .map(|row| self.placement.at(row, 0))
            .collect()
    }

    /// The start of the next burst window at or after `now` (`now` itself
    /// when it already lies inside a burst of `duty_percent` of the tREFI).
    fn burst_gate(&self, now: u64, duty_percent: u32) -> u64 {
        let phase = now % self.t_refi_ticks;
        let burst_end = self.t_refi_ticks * u64::from(duty_percent) / 100;
        if phase < burst_end.max(1) {
            now
        } else {
            now - phase + self.t_refi_ticks
        }
    }
}

/// Which attack pattern a run uses.
///
/// This is declarative *data* (serialisable, hashable into campaign cache
/// keys); the runtime behaviour lives in the [`AttackStream`] that
/// [`AttackKind::stream`] builds — the attacker-side mirror of
/// `system_sim::MitigationSetup`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackKind {
    /// One aggressor row hammered continuously (columns cycle so
    /// consecutive accesses are distinct cache lines).
    SingleSided,
    /// The two rows sandwiching a victim, hammered alternately, doubling the
    /// disturbance per victim activation pair.
    DoubleSided,
    /// `sides` aggressors spaced two rows apart (every gap row is a victim),
    /// hammered round-robin — the TRRespass / Blacksmith-style
    /// generalisation that defeats deterministic neighbour-tracking
    /// mitigations.
    ManySided {
        /// Number of aggressor rows (the stream clamps it to at least 2).
        sides: u32,
    },
    /// Half-Double-style neighbour pressure: a far aggressor two rows from
    /// the victim carries 8 of every 9 accesses and the near neighbour
    /// (distance one) the ninth — the combined near+far disturbance that
    /// flips bits on sub-20nm parts.
    HalfDouble,
    /// Every aggressor activation padded with `decoys` seeded filler
    /// activations to rows of the other bank groups.  Against sampling
    /// defenses (PARA-style) the fillers soak up the per-activation
    /// mitigation probability; against activation-budget defenses (ACB-RFM)
    /// they burn the budget of *other* banks without touching the
    /// aggressor's.
    DecoyBlast {
        /// Filler activations per aggressor activation.
        decoys: u32,
        /// Seed of the filler-row stream (part of the scenario's identity).
        seed: u64,
    },
    /// Bursts phase-locked to the tREFI cadence: for `duty_percent` of every
    /// tREFI the aggressor is hammered flat out, and the rest of the
    /// interval the attacker idles, so activation-triggered mitigations
    /// (ACB, PARA) fire while the attacker is *not* accumulating — and
    /// timing-based defenses reveal whether their RFM schedule is truly
    /// independent of this adversarial phase alignment.
    RfmPressure {
        /// Hammering portion of every tREFI, in percent (the stream clamps
        /// it to 1–100).
        duty_percent: u32,
    },
}

impl AttackKind {
    /// Label used in reports and plots.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            AttackKind::SingleSided => "Single-Sided".into(),
            AttackKind::DoubleSided => "Double-Sided".into(),
            AttackKind::ManySided { sides } => format!("{sides}-Sided"),
            AttackKind::HalfDouble => "Half-Double".into(),
            AttackKind::DecoyBlast { decoys, .. } => format!("Decoy-Blast (x{decoys})"),
            AttackKind::RfmPressure { duty_percent } => {
                format!("RFM-Pressure ({duty_percent}% duty)")
            }
        }
    }

    /// Stable kebab-case slug used in scenario names and the CLI.  Must stay
    /// byte-identical for existing kinds: the campaign golden snapshot pins
    /// scenario names built from it.
    #[must_use]
    pub fn slug(&self) -> String {
        match self {
            AttackKind::SingleSided => "single-sided".into(),
            AttackKind::DoubleSided => "double-sided".into(),
            AttackKind::ManySided { sides } => format!("nsided{sides}"),
            AttackKind::HalfDouble => "half-double".into(),
            AttackKind::DecoyBlast { decoys, .. } => format!("decoy{decoys}"),
            AttackKind::RfmPressure { duty_percent } => format!("rfm-pressure{duty_percent}"),
        }
    }

    /// One-line description for listings.
    #[must_use]
    pub fn summary(&self) -> &'static str {
        match self {
            AttackKind::SingleSided => "one aggressor row hammered flat out; the classic baseline",
            AttackKind::DoubleSided => {
                "both neighbours of one victim row, alternating; double pressure"
            }
            AttackKind::ManySided { .. } => {
                "N spaced aggressors round-robin; defeats neighbour tracking"
            }
            AttackKind::HalfDouble => "far-aggressor bulk + near-neighbour assist at distance two",
            AttackKind::DecoyBlast { .. } => {
                "seeded filler ACTs pad each aggressor ACT; evades sampling"
            }
            AttackKind::RfmPressure { .. } => {
                "bursts phase-locked to tREFI; probes RFM cadence alignment"
            }
        }
    }

    /// Builds the access stream for an organisation.  `t_refi_ticks` is the
    /// refresh-interval length [`AttackKind::RfmPressure`] phase-locks to,
    /// and `seed` is mixed into the decoy filler seed so sweeps can draw
    /// independent filler streams without changing the attack's identity.
    /// `sides` below 2 and a duty outside 1–100% are clamped here;
    /// [`AttackKind::validate`] refuses them instead.
    #[must_use]
    pub fn stream(&self, org: &DramOrganization, t_refi_ticks: u64, seed: u64) -> AttackStream {
        let kind = match *self {
            AttackKind::ManySided { sides } => AttackKind::ManySided {
                sides: sides.max(2),
            },
            AttackKind::RfmPressure { duty_percent } => AttackKind::RfmPressure {
                duty_percent: duty_percent.clamp(1, 100),
            },
            other => other,
        };
        let rng_seed = match *self {
            AttackKind::DecoyBlast { seed: own_seed, .. } => own_seed ^ seed,
            _ => seed,
        };
        AttackStream {
            kind,
            placement: Placement::new(org),
            t_refi_ticks: t_refi_ticks.max(1),
            position: 0,
            rng: StdRng::seed_from_u64(rng_seed),
        }
    }

    /// Refuses a kind that would run a different configuration from the one
    /// it names on `org`: fewer than two many-sided aggressors, many-sided
    /// aggressors that do not fit in one bank (the stream would wrap them
    /// onto other rows), and an RFM-pressure duty outside 1–100%.  It
    /// allocates nothing, so a served spec is refused before any work.
    ///
    /// # Errors
    ///
    /// [`ConfigError::InvalidParameter`] naming the offending field
    /// (`sides` or `duty_percent`).
    pub fn validate(&self, org: &DramOrganization) -> Result<(), ConfigError> {
        let invalid = |name: &'static str, reason: String| {
            Err(ConfigError::InvalidParameter { name, reason })
        };
        match *self {
            AttackKind::ManySided { sides } if sides < 2 => invalid(
                "sides",
                format!("a many-sided attack needs at least 2 aggressors, got {sides}"),
            ),
            AttackKind::ManySided { sides } => {
                // The aggressors sit two rows apart upward from the victim.
                let victim = u64::from(Placement::new(org).victim_row);
                let fit = u64::from(org.rows_per_bank).saturating_sub(victim + 1) / 2 + 1;
                if u64::from(sides) > fit {
                    invalid(
                        "sides",
                        format!(
                            "{sides} aggressors two rows apart do not fit in one bank of {} rows \
                             (at most {fit})",
                            org.rows_per_bank
                        ),
                    )
                } else {
                    Ok(())
                }
            }
            AttackKind::RfmPressure { duty_percent } if !(1..=100).contains(&duty_percent) => {
                invalid(
                    "duty_percent",
                    format!("must be 1-100 percent of a tREFI, got {duty_percent}"),
                )
            }
            _ => Ok(()),
        }
    }

    /// Serialized accesses the attacker needs before its hottest row
    /// reaches `nrh` activations on an *undefended* closed-page device
    /// (where every access is an activation): multi-row fan-out and filler
    /// padding dilute the per-row rate, so the budget scales with the
    /// pattern's shape.  Harnesses that want a meaningful
    /// breached-or-defended verdict must grant at least this many accesses
    /// — a smaller budget starves the attacker and reports "defended"
    /// vacuously.
    #[must_use]
    pub fn accesses_to_breach(&self, nrh: u32) -> u64 {
        let nrh = u64::from(nrh);
        match self {
            // All accesses land on one row.
            AttackKind::SingleSided | AttackKind::RfmPressure { .. } => nrh,
            // Accesses split evenly across the aggressor set.
            AttackKind::DoubleSided => nrh * 2,
            AttackKind::ManySided { sides } => nrh * u64::from((*sides).max(2)),
            // The far aggressor receives 8 of every 9 accesses.
            AttackKind::HalfDouble => nrh.div_ceil(FAR_PER_NEAR) * (FAR_PER_NEAR + 1),
            // One aggressor access per `decoys` fillers.
            AttackKind::DecoyBlast { decoys, .. } => nrh * (u64::from(*decoys) + 1),
        }
    }

    /// Parses a registry slug (`prac-bench --attack <slug>`).  Only the
    /// registered spellings are accepted.
    #[must_use]
    pub fn parse_slug(slug: &str) -> Option<AttackKind> {
        attack_registry()
            .into_iter()
            .find(|kind| kind.slug() == slug)
    }
}

/// Seed of the registry's default decoy filler stream.  Fixed so the
/// registered scenario is deterministic; sweeps that want other streams set
/// the `seed` field of [`AttackKind::DecoyBlast`] explicitly.
pub const DECOY_DEFAULT_SEED: u64 = 0xDEC0_15EED;

/// Every built-in attack pattern, in escalation order: the classic
/// single-row baseline through the mitigation-aware adversaries.  The
/// `attacks` campaign and the pattern-validity property suite iterate this
/// registry, so a pattern added here is automatically swept against every
/// registered mitigation and checked against every address mapping.
#[must_use]
pub fn attack_registry() -> Vec<AttackKind> {
    vec![
        AttackKind::SingleSided,
        AttackKind::DoubleSided,
        AttackKind::ManySided { sides: 8 },
        AttackKind::HalfDouble,
        AttackKind::DecoyBlast {
            decoys: 4,
            seed: DECOY_DEFAULT_SEED,
        },
        AttackKind::RfmPressure { duty_percent: 50 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org() -> DramOrganization {
        DramOrganization::ddr5_32gb_quad_rank()
    }

    const T_REFI: u64 = 15_600;

    fn victim() -> u32 {
        Placement::new(&org()).victim_row
    }

    #[test]
    fn row_bits_describe_the_hot_row_field() {
        // The paper organisation: 128 columns × 64 B = 8 KiB rows.
        assert_eq!(row_bits(&org()), 128 * 64 * 8);
    }

    #[test]
    fn registry_slugs_and_labels_are_unique_and_described() {
        let registry = attack_registry();
        assert!(registry.len() >= 6, "{} registered attacks", registry.len());
        let mut slugs = std::collections::HashSet::new();
        for kind in &registry {
            assert!(slugs.insert(kind.slug()), "duplicate slug {}", kind.slug());
            assert!(!kind.summary().is_empty());
            assert!(!kind.label().is_empty());
            assert_eq!(kind.validate(&org()), Ok(()), "{}", kind.slug());
        }
    }

    #[test]
    fn slugs_parse_back_to_their_kind() {
        for kind in attack_registry() {
            assert_eq!(
                AttackKind::parse_slug(&kind.slug()),
                Some(kind),
                "slug {} must round-trip",
                kind.slug()
            );
        }
        assert_eq!(AttackKind::parse_slug("no-such-attack"), None);
    }

    #[test]
    fn every_registered_pattern_reports_hot_rows_and_streams() {
        for kind in attack_registry() {
            let mut stream = kind.stream(&org(), T_REFI, 0);
            let hot = stream.hot_rows();
            assert!(!hot.is_empty(), "{}: no hot rows", kind.slug());
            // Every built-in placement concentrates on rank 0.
            assert!(hot.iter().all(|a| a.rank == 0), "{}", kind.slug());
            for _ in 0..256 {
                let a = stream.next_access(0).address;
                let o = org();
                assert!(a.channel < o.channels);
                assert!(a.rank < o.ranks);
                assert!(a.bank_group < o.bank_groups);
                assert!(a.bank < o.banks_per_group);
                assert!(a.row < o.rows_per_bank);
                assert!(a.column < o.columns_per_row);
            }
        }
    }

    #[test]
    fn aggressor_accesses_target_hot_rows() {
        let row_of = |a: &DramAddress| (a.rank, a.bank_group, a.bank, a.row);
        for kind in attack_registry() {
            let mut stream = kind.stream(&org(), T_REFI, 0);
            let hot: Vec<_> = stream.hot_rows().iter().map(row_of).collect();
            for _ in 0..512 {
                let access = stream.next_access(0);
                let row = row_of(&access.address);
                match access.hot_row {
                    Some(index) => assert_eq!(
                        hot[index],
                        row,
                        "{}: aggressor access names hot row {index} but hits another",
                        kind.slug()
                    ),
                    None => assert!(
                        !hot.contains(&row),
                        "{}: filler access hit an aggressor row",
                        kind.slug()
                    ),
                }
            }
        }
    }

    #[test]
    fn double_sided_alternates_around_the_victim() {
        let mut stream = AttackKind::DoubleSided.stream(&org(), T_REFI, 0);
        let v = victim();
        let rows: Vec<u32> = (0..4).map(|_| stream.next_access(0).address.row).collect();
        assert_eq!(rows, vec![v - 1, v + 1, v - 1, v + 1]);
    }

    #[test]
    fn many_sided_covers_all_aggressors_per_round() {
        let mut stream = AttackKind::ManySided { sides: 8 }.stream(&org(), T_REFI, 0);
        let mut rows = std::collections::HashSet::new();
        for _ in 0..8 {
            rows.insert(stream.next_access(0).address.row);
        }
        assert_eq!(rows.len(), 8, "one round must visit all 8 aggressors");
        assert_eq!(stream.hot_rows().len(), 8);
    }

    #[test]
    fn half_double_keeps_the_far_to_near_ratio() {
        let mut stream = AttackKind::HalfDouble.stream(&org(), T_REFI, 0);
        let (far, near) = (victim() + 2, victim() + 1);
        let mut far_count = 0u32;
        let mut near_count = 0u32;
        for _ in 0..90 {
            match stream.next_access(0).address.row {
                r if r == far => far_count += 1,
                r if r == near => near_count += 1,
                other => panic!("unexpected row {other}"),
            }
        }
        assert_eq!(far_count, 80);
        assert_eq!(near_count, 10);
    }

    #[test]
    fn decoy_blast_is_seed_deterministic_and_mostly_filler() {
        let accesses = |seed: u64| {
            let mut stream = AttackKind::DecoyBlast { decoys: 4, seed }.stream(&org(), T_REFI, 0);
            (0..200).map(|_| stream.next_access(0)).collect::<Vec<_>>()
        };
        assert_eq!(
            accesses(7),
            accesses(7),
            "same seed must replay bit-for-bit"
        );
        assert_ne!(accesses(7), accesses(8), "different seeds must differ");
        // Adjacent even/odd seeds draw distinct streams too (a naive
        // `seed | 1` non-zero guard would alias them).
        assert_ne!(accesses(6), accesses(7), "even/odd seed pairs must differ");
        // The stream seed is mixed into the kind's own seed.
        let mixed = {
            let mut stream =
                AttackKind::DecoyBlast { decoys: 4, seed: 7 }.stream(&org(), T_REFI, 1);
            (0..200).map(|_| stream.next_access(0)).collect::<Vec<_>>()
        };
        assert_eq!(mixed, accesses(6), "7 ^ 1 draws the seed-6 stream");
        let accesses = accesses(7);
        let aggressors = accesses.iter().filter(|a| a.hot_row.is_some()).count();
        assert_eq!(aggressors, 40, "1 aggressor per 4 decoys over 200 accesses");
        // Fillers avoid the aggressor's bank group entirely.
        assert!(accesses
            .iter()
            .filter(|a| a.hot_row.is_none())
            .all(|a| a.address.bank_group != 0));
    }

    #[test]
    fn rfm_pressure_gates_accesses_outside_the_burst_window() {
        let kind = AttackKind::RfmPressure { duty_percent: 50 };
        let mut stream = kind.stream(&org(), 1_000, 0);
        // Inside the burst: immediate.
        assert_eq!(stream.next_access(10).not_before, 10);
        assert_eq!(stream.next_access(499).not_before, 499);
        // Outside the burst: deferred to the next tREFI boundary.
        assert_eq!(stream.next_access(500).not_before, 1_000);
        assert_eq!(stream.next_access(1_999).not_before, 2_000);
        // Other kinds never gate.
        let mut single = AttackKind::SingleSided.stream(&org(), 1_000, 0);
        assert_eq!(single.next_access(500).not_before, 0);
    }

    #[test]
    fn now_never_changes_the_address_stream() {
        // Contract rule 3: two streams polled at different times agree on
        // every address and hot row, for every registered kind.
        for kind in attack_registry() {
            let mut a = kind.stream(&org(), 1_000, 5);
            let mut b = kind.stream(&org(), 1_000, 5);
            for i in 0..64u64 {
                let (x, y) = (a.next_access(i), b.next_access(i * 777));
                assert_eq!(
                    (x.address, x.hot_row),
                    (y.address, y.hot_row),
                    "{}: now must not change the address stream",
                    kind.slug()
                );
            }
        }
    }

    #[test]
    fn validate_refuses_what_the_stream_would_clamp_or_wrap() {
        let o = org();
        let field = |kind: AttackKind| match kind.validate(&o) {
            Err(ConfigError::InvalidParameter { name, .. }) => Some(name),
            Err(other) => panic!("unexpected error {other:?}"),
            Ok(()) => None,
        };
        assert_eq!(field(AttackKind::ManySided { sides: 0 }), Some("sides"));
        assert_eq!(field(AttackKind::ManySided { sides: 1 }), Some("sides"));
        assert_eq!(field(AttackKind::ManySided { sides: 2 }), None);
        // The paper bank has 128 Ki rows and the victim sits at 64 Ki, so
        // aggressors two rows apart fit up to 32 Ki of them.
        assert_eq!(field(AttackKind::ManySided { sides: 32_768 }), None);
        assert_eq!(
            field(AttackKind::ManySided { sides: 32_769 }),
            Some("sides")
        );
        assert_eq!(
            field(AttackKind::ManySided { sides: u32::MAX }),
            Some("sides")
        );
        let top = AttackKind::ManySided { sides: 32_768 }
            .stream(&o, T_REFI, 0)
            .hot_rows()
            .iter()
            .map(|a| a.row)
            .max();
        assert_eq!(
            top,
            Some(o.rows_per_bank - 2),
            "the largest set ends in the bank"
        );
        for duty in [0, 101, u32::MAX] {
            let kind = AttackKind::RfmPressure { duty_percent: duty };
            assert_eq!(field(kind), Some("duty_percent"), "{duty}%");
        }
        for duty in [1, 50, 100] {
            assert_eq!(field(AttackKind::RfmPressure { duty_percent: duty }), None);
        }
    }

    #[test]
    fn breach_budgets_scale_with_pattern_fanout() {
        assert_eq!(AttackKind::SingleSided.accesses_to_breach(1024), 1024);
        assert_eq!(AttackKind::DoubleSided.accesses_to_breach(1024), 2048);
        assert_eq!(
            AttackKind::ManySided { sides: 8 }.accesses_to_breach(1024),
            8192
        );
        assert_eq!(
            AttackKind::DecoyBlast { decoys: 4, seed: 0 }.accesses_to_breach(1024),
            5120
        );
        assert_eq!(
            AttackKind::RfmPressure { duty_percent: 50 }.accesses_to_breach(1024),
            1024
        );
        // Half-double: 8 of 9 accesses hit the far row; the budget must
        // still deliver >= nrh far-row accesses.
        let budget = AttackKind::HalfDouble.accesses_to_breach(1024);
        assert!(budget * 8 / 9 >= 1024, "{budget}");
        // The budget is sufficient in simulation terms: an undefended
        // closed-page device sees exactly one ACT per access, so driving
        // each registered pattern for its own budget reaches NRH on some
        // row.  (The adversary integration suite in `pracleak` asserts the
        // end-to-end version of this.)
        for kind in attack_registry() {
            assert!(
                kind.accesses_to_breach(256) >= 256,
                "{}: budget below NRH",
                kind.slug()
            );
        }
    }

    #[test]
    fn slot_helpers_wrap_and_clamp() {
        assert_eq!(cycle_slot(0, 4), 0);
        assert_eq!(cycle_slot(5, 4), 1);
        assert_eq!(cycle_slot(9, 0), 0, "zero slots clamps to one");
        assert_eq!(strided_slots(4096, 1024), 4);
        assert_eq!(strided_slots(100, 0), 100, "zero stride clamps to one byte");
        assert_eq!(
            strided_slots(10, 64),
            1,
            "sub-stride footprints keep one slot"
        );
    }

    #[test]
    fn patterns_work_on_tiny_and_multi_channel_organisations() {
        for org in [
            DramOrganization::tiny_for_tests(),
            DramOrganization::ddr5_32gb_quad_rank().with_channels(4),
        ] {
            for kind in attack_registry() {
                let mut stream = kind.stream(&org, T_REFI, 3);
                for _ in 0..64 {
                    let a = stream.next_access(0).address;
                    assert!(a.row < org.rows_per_bank, "{}: row", kind.slug());
                    assert!(a.column < org.columns_per_row, "{}: col", kind.slug());
                    assert!(a.bank_group < org.bank_groups, "{}: bg", kind.slug());
                }
            }
        }
    }
}
