//! The pluggable attack-pattern API: the adversary side of the mitigation
//! policies.
//!
//! A RowHammer access pattern is no longer a closed enum: the
//! [`AttackPattern`] trait describes an adversary as a deterministic stream
//! of DRAM-coordinate accesses, so arbitrary attacks — in-tree or injected
//! by downstream code — run through one contract that every consumer (the
//! `pracleak` agents, the full-system attacker core, the `attacks`
//! campaign) understands:
//!
//! * **Access stream** — [`AttackPattern::next_access`] returns the next
//!   [`AttackAccess`]: the [`DramAddress`] to touch, the earliest tick it
//!   should issue (bursting adversaries schedule here), and whether the
//!   access targets an aggressor row or is decoy/filler traffic.
//! * **Hot-row disclosure** — [`AttackPattern::hot_rows`] enumerates the
//!   aggressor rows the pattern pressures, so harnesses can measure
//!   aggressor coverage and check per-row activation counts against `NRH`.
//!
//! # Determinism contract
//!
//! Mirroring the determinism rules of the memory controller's mitigations
//! (`memctrl::mitigation`):
//!
//! 1. **The stream is a pure function of the configuration.** Calling
//!    `next_access` repeatedly must replay the same addresses for the same
//!    built pattern, regardless of wall-clock or ambient entropy.
//! 2. **Randomness is seeded.** Probabilistic patterns (e.g.
//!    [`DecoyBlastPattern`]) derive every draw from an explicit seed carried
//!    in their [`AttackKind`] configuration, so a scenario re-runs
//!    bit-for-bit and its campaign cache key captures the whole behaviour.
//! 3. **`now` only gates, never generates.** The `now` argument may delay an
//!    access (via [`AttackAccess::not_before`]) but must not change *which*
//!    addresses the stream visits, so trace-mode consumers (which flatten
//!    timing) and agent-mode consumers (which honour it) hammer the same
//!    rows.
//!
//! The module also owns the low-level slot-cycling arithmetic
//! ([`cycle_slot`], [`strided_slots`], [`line_slots`]) that the benign
//! [`crate::patterns`] iterators previously duplicated.

use dram_sim::org::{DramAddress, DramOrganization};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Round-robin slot selection: the `position`-th access over `slots`
/// equivalent targets.  `slots` is clamped to at least 1.  This is the one
/// cycling primitive shared by every attack engine and by the benign
/// [`crate::patterns::AddressStream`].
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

/// Number of distinct cache-line slots inside a `footprint` of bytes.
#[must_use]
pub fn line_slots(footprint: u64, line_bytes: u64) -> u64 {
    strided_slots(footprint, line_bytes)
}

/// Number of data bits in one DRAM row of `org` — the field the on-die ECC
/// adjudication distributes post-breach bit flips over.
#[must_use]
pub fn row_bits(org: &DramOrganization) -> u64 {
    u64::from(org.columns_per_row) * u64::from(org.column_bytes) * 8
}

/// Number of distinct ranks an attack's hot rows pressure.  The built-in
/// placements concentrate on rank 0, so this is 1 today, but rank-aware
/// harness metrics (ECC adjudication per rank, coverage under consolidated
/// rank interleaving) must not bake that assumption in.
#[must_use]
pub fn hot_rank_span(hot_rows: &[DramAddress]) -> u32 {
    let mut ranks: Vec<u32> = hot_rows.iter().map(|address| address.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    u32::try_from(ranks.len()).expect("rank count fits in u32")
}

/// One access an attack pattern wants to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttackAccess {
    /// The DRAM coordinate to touch (consumers encode it to a physical
    /// address through their address mapping).
    pub address: DramAddress,
    /// Earliest tick at which the access should issue.  `0` means
    /// "immediately"; bursting patterns (e.g. [`RfmPressurePattern`]) point
    /// this at the next burst window.  Consumers without a timing notion
    /// (trace generation) may ignore it — see the module determinism
    /// contract.
    pub not_before: u64,
    /// `true` when the access targets an aggressor row from
    /// [`AttackPattern::hot_rows`]; `false` for decoy / filler traffic.
    pub aggressor: bool,
}

impl AttackAccess {
    /// An immediate aggressor access.
    #[must_use]
    pub fn aggressor(address: DramAddress) -> Self {
        Self {
            address,
            not_before: 0,
            aggressor: true,
        }
    }

    /// An immediate decoy / filler access.
    #[must_use]
    pub fn filler(address: DramAddress) -> Self {
        Self {
            address,
            not_before: 0,
            aggressor: false,
        }
    }
}

/// A deterministic adversarial access stream.
///
/// See the [module documentation](self) for the determinism contract.
/// Implementations must be `Send` so attack cells can run on the campaign
/// runner's worker threads.
pub trait AttackPattern: std::fmt::Debug + Send {
    /// Short human-readable label (reports, logs).
    fn label(&self) -> &'static str;

    /// The next access of the infinite stream.  `now` is the consumer's
    /// current tick; it may gate the access via
    /// [`AttackAccess::not_before`] but must not change the address
    /// sequence.
    fn next_access(&mut self, now: u64) -> AttackAccess;

    /// The aggressor rows this pattern pressures (column 0 coordinates).
    /// Used by harnesses to compute aggressor coverage and compare per-row
    /// activation counts against the RowHammer threshold.
    fn hot_rows(&self) -> Vec<DramAddress>;
}

/// Shared placement for the built-in patterns: everything hammers rank 0 /
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

    fn hot(&self, rows: &[u32]) -> Vec<DramAddress> {
        rows.iter().map(|&row| self.at(row, 0)).collect()
    }
}

/// Classic single-sided RowHammer: one aggressor row hammered continuously
/// (columns cycle so consecutive accesses are distinct cache lines).
#[derive(Debug, Clone)]
pub struct SingleSidedPattern {
    placement: Placement,
    position: u64,
}

impl SingleSidedPattern {
    /// Creates the pattern against the placement's default aggressor row.
    #[must_use]
    pub fn new(org: &DramOrganization) -> Self {
        Self {
            placement: Placement::new(org),
            position: 0,
        }
    }

    fn aggressor_row(&self) -> u32 {
        self.placement.victim_row + 1
    }
}

impl AttackPattern for SingleSidedPattern {
    fn label(&self) -> &'static str {
        "single-sided"
    }

    fn next_access(&mut self, _now: u64) -> AttackAccess {
        let access = self.placement.at(self.aggressor_row(), self.position);
        self.position += 1;
        AttackAccess::aggressor(access)
    }

    fn hot_rows(&self) -> Vec<DramAddress> {
        self.placement.hot(&[self.aggressor_row()])
    }
}

/// Double-sided RowHammer: the two rows sandwiching the victim are hammered
/// alternately, doubling the disturbance per victim activation pair.
#[derive(Debug, Clone)]
pub struct DoubleSidedPattern {
    placement: Placement,
    position: u64,
}

impl DoubleSidedPattern {
    /// Creates the pattern around the placement's victim row.
    #[must_use]
    pub fn new(org: &DramOrganization) -> Self {
        Self {
            placement: Placement::new(org),
            position: 0,
        }
    }

    fn rows(&self) -> [u32; 2] {
        [
            self.placement.victim_row.saturating_sub(1),
            self.placement.victim_row + 1,
        ]
    }
}

impl AttackPattern for DoubleSidedPattern {
    fn label(&self) -> &'static str {
        "double-sided"
    }

    fn next_access(&mut self, _now: u64) -> AttackAccess {
        let rows = self.rows();
        let row = rows[usize::try_from(cycle_slot(self.position, 2)).expect("slot < 2")];
        // Advance the column once per full pass over the aggressor set so
        // the two rows see the same line sequence.
        let access = self.placement.at(row, self.position / 2);
        self.position += 1;
        AttackAccess::aggressor(access)
    }

    fn hot_rows(&self) -> Vec<DramAddress> {
        self.placement.hot(&self.rows())
    }
}

/// N-sided ("many-sided") RowHammer: `sides` aggressor rows spaced two rows
/// apart (every gap row is a victim), hammered round-robin — the TRRespass /
/// Blacksmith-style generalisation that defeats deterministic
/// neighbour-tracking mitigations.
#[derive(Debug, Clone)]
pub struct ManySidedPattern {
    placement: Placement,
    sides: u32,
    position: u64,
}

impl ManySidedPattern {
    /// Creates the pattern with `sides` aggressors (clamped to at least 2).
    #[must_use]
    pub fn new(org: &DramOrganization, sides: u32) -> Self {
        Self {
            placement: Placement::new(org),
            sides: sides.max(2),
            position: 0,
        }
    }

    fn rows(&self) -> Vec<u32> {
        (0..self.sides)
            .map(|i| self.placement.victim_row + 2 * i)
            .collect()
    }
}

impl AttackPattern for ManySidedPattern {
    fn label(&self) -> &'static str {
        "many-sided"
    }

    fn next_access(&mut self, _now: u64) -> AttackAccess {
        // Hot path: the row is computed directly instead of indexing the
        // `rows()` Vec, which would heap-allocate per access.
        let index = u32::try_from(cycle_slot(self.position, u64::from(self.sides)))
            .expect("slot fits in u32");
        let row = self.placement.victim_row + 2 * index;
        let access = self
            .placement
            .at(row, self.position / u64::from(self.sides));
        self.position += 1;
        AttackAccess::aggressor(access)
    }

    fn hot_rows(&self) -> Vec<DramAddress> {
        self.placement.hot(&self.rows())
    }
}

/// Half-Double-style neighbour pressure: a far aggressor two rows from the
/// victim carries the bulk of the hammering, and the near neighbour (distance
/// one) receives a low-rate assist — the access ratio that flips bits through
/// the combined near+far disturbance on sub-20nm parts.
#[derive(Debug, Clone)]
pub struct HalfDoublePattern {
    placement: Placement,
    /// Far-aggressor accesses per near-aggressor access.
    far_per_near: u64,
    position: u64,
}

impl HalfDoublePattern {
    /// Creates the pattern with the classic 8:1 far:near access ratio.
    #[must_use]
    pub fn new(org: &DramOrganization) -> Self {
        Self {
            placement: Placement::new(org),
            far_per_near: 8,
            position: 0,
        }
    }

    fn far_row(&self) -> u32 {
        self.placement.victim_row + 2
    }

    fn near_row(&self) -> u32 {
        self.placement.victim_row + 1
    }
}

impl AttackPattern for HalfDoublePattern {
    fn label(&self) -> &'static str {
        "half-double"
    }

    fn next_access(&mut self, _now: u64) -> AttackAccess {
        let period = self.far_per_near + 1;
        let slot = cycle_slot(self.position, period);
        let row = if slot < self.far_per_near {
            self.far_row()
        } else {
            self.near_row()
        };
        let access = self.placement.at(row, self.position / period);
        self.position += 1;
        AttackAccess::aggressor(access)
    }

    fn hot_rows(&self) -> Vec<DramAddress> {
        self.placement.hot(&[self.far_row(), self.near_row()])
    }
}

/// Decoy / blast pattern: every aggressor activation is padded with
/// `decoys` filler activations to rows drawn from a seeded stream across the
/// other bank groups.  Against sampling defenses (PARA-style) the fillers
/// soak up the per-activation mitigation probability; against
/// activation-budget defenses (ACB-RFM) they burn the bank-activation
/// budget of *other* banks without touching the aggressor's.
#[derive(Debug, Clone)]
pub struct DecoyBlastPattern {
    placement: Placement,
    decoys: u64,
    rng: StdRng,
    position: u64,
}

impl DecoyBlastPattern {
    /// Creates the pattern with `decoys` filler activations per aggressor
    /// activation, drawing filler rows from a stream seeded with `seed` —
    /// the same seeded [`StdRng`] the benign random pattern uses, so every
    /// distinct seed draws a distinct filler stream.
    #[must_use]
    pub fn new(org: &DramOrganization, decoys: u32, seed: u64) -> Self {
        Self {
            placement: Placement::new(org),
            decoys: u64::from(decoys),
            rng: StdRng::seed_from_u64(seed),
            position: 0,
        }
    }

    fn aggressor_row(&self) -> u32 {
        self.placement.victim_row + 1
    }

    fn filler(&mut self) -> DramAddress {
        let org = self.placement.org;
        // Fillers land in any bank group other than the aggressor's (bank
        // group 0) when more than one exists, so the aggressor bank's ACB
        // budget is untouched while the channel-wide sampler sees noise.
        let groups = u64::from(org.bank_groups.max(1));
        let bank_group = if groups > 1 {
            1 + u32::try_from(self.rng.gen_range(0..groups - 1)).expect("bank group fits")
        } else {
            0
        };
        let row = u32::try_from(self.rng.gen_range(0..u64::from(org.rows_per_bank.max(1))))
            .expect("row fits in u32");
        let column = u32::try_from(self.rng.gen_range(0..u64::from(org.columns_per_row.max(1))))
            .expect("column fits in u32");
        DramAddress::new(&org, 0, bank_group, 0, row, column)
    }
}

impl AttackPattern for DecoyBlastPattern {
    fn label(&self) -> &'static str {
        "decoy-blast"
    }

    fn next_access(&mut self, _now: u64) -> AttackAccess {
        let period = self.decoys + 1;
        let slot = cycle_slot(self.position, period);
        let access = if slot == 0 {
            AttackAccess::aggressor(
                self.placement
                    .at(self.aggressor_row(), self.position / period),
            )
        } else {
            AttackAccess::filler(self.filler())
        };
        self.position += 1;
        access
    }

    fn hot_rows(&self) -> Vec<DramAddress> {
        self.placement.hot(&[self.aggressor_row()])
    }
}

/// RFM-pressure pattern: hammers in bursts phase-locked to the tREFI
/// cadence.  For `duty_percent` of every tREFI the aggressor is hammered
/// flat out; the rest of the interval the attacker idles, so
/// activation-triggered mitigations (ACB, PARA) fire while the attacker is
/// *not* accumulating — and timing-based defenses reveal whether their RFM
/// schedule is truly independent of this adversarial phase alignment.
#[derive(Debug, Clone)]
pub struct RfmPressurePattern {
    placement: Placement,
    t_refi_ticks: u64,
    /// Hammering portion of each tREFI, in percent (1–100).
    duty_percent: u64,
    position: u64,
}

impl RfmPressurePattern {
    /// Creates the pattern bursting for `duty_percent` of every
    /// `t_refi_ticks`-long interval (duty clamped to 1–100).
    #[must_use]
    pub fn new(org: &DramOrganization, t_refi_ticks: u64, duty_percent: u32) -> Self {
        Self {
            placement: Placement::new(org),
            t_refi_ticks: t_refi_ticks.max(1),
            duty_percent: u64::from(duty_percent.clamp(1, 100)),
            position: 0,
        }
    }

    fn aggressor_row(&self) -> u32 {
        self.placement.victim_row + 1
    }

    /// The start of the next burst window at or after `now` (`now` itself
    /// when it already lies inside a burst).
    fn burst_gate(&self, now: u64) -> u64 {
        let phase = now % self.t_refi_ticks;
        let burst_end = self.t_refi_ticks * self.duty_percent / 100;
        if phase < burst_end.max(1) {
            now
        } else {
            now - phase + self.t_refi_ticks
        }
    }
}

impl AttackPattern for RfmPressurePattern {
    fn label(&self) -> &'static str {
        "rfm-pressure"
    }

    fn next_access(&mut self, now: u64) -> AttackAccess {
        let address = self.placement.at(self.aggressor_row(), self.position);
        self.position += 1;
        AttackAccess {
            address,
            not_before: self.burst_gate(now),
            aggressor: true,
        }
    }

    fn hot_rows(&self) -> Vec<DramAddress> {
        self.placement.hot(&[self.aggressor_row()])
    }
}

/// Which attack pattern a run uses.
///
/// This is declarative *data* (serialisable, hashable into campaign cache
/// keys); the runtime behaviour lives in the [`AttackPattern`] that
/// [`AttackKind::build`] constructs — the attacker-side mirror of
/// `system_sim::MitigationSetup`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttackKind {
    /// One aggressor row hammered continuously.
    SingleSided,
    /// The two rows sandwiching a victim, hammered alternately.
    DoubleSided,
    /// `sides` aggressors spaced two rows apart, hammered round-robin.
    ManySided {
        /// Number of aggressor rows (clamped to at least 2).
        sides: u32,
    },
    /// Far-aggressor bulk hammering with low-rate near-neighbour assists.
    HalfDouble,
    /// Aggressor activations padded with seeded filler activations to evade
    /// sampling / budget defenses.
    DecoyBlast {
        /// Filler activations per aggressor activation.
        decoys: u32,
        /// Seed of the filler-row stream (part of the scenario's identity).
        seed: u64,
    },
    /// Bursts phase-locked against the tREFI / RFM cadence.
    RfmPressure {
        /// Hammering portion of every tREFI, in percent (1–100).
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

    /// Builds the runtime pattern for an organisation.  `t_refi_ticks` is
    /// the refresh-interval length used by cadence-aware patterns, and
    /// `seed` is mixed into the pattern's own seed (if any) so sweeps can
    /// draw independent filler streams without changing the attack's
    /// identity.
    #[must_use]
    pub fn build(
        &self,
        org: &DramOrganization,
        t_refi_ticks: u64,
        seed: u64,
    ) -> Box<dyn AttackPattern> {
        match self {
            AttackKind::SingleSided => Box::new(SingleSidedPattern::new(org)),
            AttackKind::DoubleSided => Box::new(DoubleSidedPattern::new(org)),
            AttackKind::ManySided { sides } => Box::new(ManySidedPattern::new(org, *sides)),
            AttackKind::HalfDouble => Box::new(HalfDoublePattern::new(org)),
            AttackKind::DecoyBlast {
                decoys,
                seed: own_seed,
            } => Box::new(DecoyBlastPattern::new(org, *decoys, own_seed ^ seed)),
            AttackKind::RfmPressure { duty_percent } => {
                Box::new(RfmPressurePattern::new(org, t_refi_ticks, *duty_percent))
            }
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
            AttackKind::HalfDouble => nrh.div_ceil(8) * 9,
            // One aggressor access per `decoys` fillers.
            AttackKind::DecoyBlast { decoys, .. } => nrh * (u64::from(*decoys) + 1),
        }
    }

    /// The descriptor for this kind.
    #[must_use]
    pub fn descriptor(&self) -> AttackDescriptor {
        AttackDescriptor::of(*self)
    }

    /// Parses a registry slug (`prac-bench --attack <slug>`).  Only the
    /// registered spellings are accepted.
    #[must_use]
    pub fn parse_slug(slug: &str) -> Option<AttackKind> {
        attack_registry()
            .into_iter()
            .map(|descriptor| descriptor.kind)
            .find(|kind| kind.slug() == slug)
    }
}

/// A registered attack pattern: the declarative [`AttackKind`] plus its
/// stable identifiers and a one-line summary — the attacker-side mirror of
/// `system_sim::MitigationDescriptor`.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackDescriptor {
    /// The declarative kind this descriptor describes.
    pub kind: AttackKind,
    /// Stable kebab-case slug (scenario names, CLI).
    pub slug: String,
    /// Human-readable label (reports, plots).
    pub label: String,
    /// One-line description for listings.
    pub summary: &'static str,
}

impl AttackDescriptor {
    /// Builds the descriptor of a kind.
    #[must_use]
    pub fn of(kind: AttackKind) -> Self {
        let summary = match &kind {
            AttackKind::SingleSided => "one aggressor row hammered flat out; the classic baseline",
            AttackKind::DoubleSided => {
                "both neighbours of one victim row, alternating; double pressure"
            }
            AttackKind::ManySided { .. } => {
                "N spaced aggressors round-robin; defeats neighbour tracking"
            }
            AttackKind::DecoyBlast { .. } => {
                "seeded filler ACTs pad each aggressor ACT; evades sampling"
            }
            AttackKind::HalfDouble => "far-aggressor bulk + near-neighbour assist at distance two",
            AttackKind::RfmPressure { .. } => {
                "bursts phase-locked to tREFI; probes RFM cadence alignment"
            }
        };
        Self {
            slug: kind.slug(),
            label: kind.label(),
            summary,
            kind,
        }
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
pub fn attack_registry() -> Vec<AttackDescriptor> {
    [
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
    .into_iter()
    .map(AttackDescriptor::of)
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn org() -> DramOrganization {
        DramOrganization::ddr5_32gb_quad_rank()
    }

    const T_REFI: u64 = 15_600;

    #[test]
    fn row_bits_and_rank_span_describe_the_hot_row_field() {
        // The paper organisation: 128 columns × 64 B = 8 KiB rows.
        assert_eq!(row_bits(&org()), 128 * 64 * 8);
        // Every built-in placement concentrates on rank 0 regardless of the
        // organisation's rank count.
        for descriptor in attack_registry() {
            let pattern = descriptor.kind.build(&org(), T_REFI, 1);
            let hot = pattern.hot_rows();
            assert_eq!(hot_rank_span(&hot), 1, "{}", descriptor.slug);
        }
        // A synthetic multi-rank spread is counted without double-counting.
        let o = org();
        let spread = [
            DramAddress::new(&o, 0, 0, 0, 1, 0),
            DramAddress::new(&o, 1, 0, 0, 1, 0),
            DramAddress::new(&o, 1, 1, 0, 2, 0),
            DramAddress::new(&o, 3, 0, 1, 3, 0),
        ];
        assert_eq!(hot_rank_span(&spread), 3);
        assert_eq!(hot_rank_span(&[]), 0);
    }

    #[test]
    fn registry_slugs_and_labels_are_unique_and_described() {
        let registry = attack_registry();
        assert!(registry.len() >= 6, "{} registered attacks", registry.len());
        let mut slugs = std::collections::HashSet::new();
        for descriptor in &registry {
            assert!(
                slugs.insert(descriptor.slug.clone()),
                "duplicate slug {}",
                descriptor.slug
            );
            assert!(!descriptor.summary.is_empty());
            assert!(!descriptor.label.is_empty());
        }
    }

    #[test]
    fn slugs_parse_back_to_their_kind() {
        for descriptor in attack_registry() {
            assert_eq!(
                AttackKind::parse_slug(&descriptor.slug),
                Some(descriptor.kind),
                "slug {} must round-trip",
                descriptor.slug
            );
        }
        assert_eq!(AttackKind::parse_slug("no-such-attack"), None);
    }

    #[test]
    fn every_registered_pattern_reports_hot_rows_and_streams() {
        for descriptor in attack_registry() {
            let mut pattern = descriptor.kind.build(&org(), T_REFI, 0);
            let hot = pattern.hot_rows();
            assert!(!hot.is_empty(), "{}: no hot rows", descriptor.slug);
            for _ in 0..256 {
                let access = pattern.next_access(0);
                let a = access.address;
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
        for descriptor in attack_registry() {
            let mut pattern = descriptor.kind.build(&org(), T_REFI, 0);
            let hot: std::collections::HashSet<(u32, u32, u32, u32)> = pattern
                .hot_rows()
                .into_iter()
                .map(|a| (a.rank, a.bank_group, a.bank, a.row))
                .collect();
            for _ in 0..512 {
                let access = pattern.next_access(0);
                let key = (
                    access.address.rank,
                    access.address.bank_group,
                    access.address.bank,
                    access.address.row,
                );
                if access.aggressor {
                    assert!(
                        hot.contains(&key),
                        "{}: aggressor access to a row outside hot_rows",
                        descriptor.slug
                    );
                } else {
                    assert!(
                        !hot.contains(&key),
                        "{}: filler access hit an aggressor row",
                        descriptor.slug
                    );
                }
            }
        }
    }

    #[test]
    fn double_sided_alternates_around_the_victim() {
        let mut pattern = DoubleSidedPattern::new(&org());
        let victim = Placement::new(&org()).victim_row;
        let rows: Vec<u32> = (0..4).map(|_| pattern.next_access(0).address.row).collect();
        assert_eq!(rows, vec![victim - 1, victim + 1, victim - 1, victim + 1]);
    }

    #[test]
    fn many_sided_covers_all_aggressors_per_round() {
        let mut pattern = ManySidedPattern::new(&org(), 8);
        let mut rows = std::collections::HashSet::new();
        for _ in 0..8 {
            rows.insert(pattern.next_access(0).address.row);
        }
        assert_eq!(rows.len(), 8, "one round must visit all 8 aggressors");
        assert_eq!(pattern.hot_rows().len(), 8);
    }

    #[test]
    fn half_double_keeps_the_far_to_near_ratio() {
        let mut pattern = HalfDoublePattern::new(&org());
        let far = pattern.far_row();
        let near = pattern.near_row();
        let mut far_count = 0u32;
        let mut near_count = 0u32;
        for _ in 0..90 {
            match pattern.next_access(0).address.row {
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
        let stream = |seed: u64| {
            let mut pattern = DecoyBlastPattern::new(&org(), 4, seed);
            (0..200).map(|_| pattern.next_access(0)).collect::<Vec<_>>()
        };
        assert_eq!(stream(7), stream(7), "same seed must replay bit-for-bit");
        assert_ne!(stream(7), stream(8), "different seeds must differ");
        // Adjacent even/odd seeds draw distinct streams too (a naive
        // `seed | 1` non-zero guard would alias them).
        assert_ne!(stream(6), stream(7), "even/odd seed pairs must differ");
        let accesses = stream(7);
        let aggressors = accesses.iter().filter(|a| a.aggressor).count();
        assert_eq!(aggressors, 40, "1 aggressor per 4 decoys over 200 accesses");
        // Fillers avoid the aggressor's bank group entirely.
        assert!(accesses
            .iter()
            .filter(|a| !a.aggressor)
            .all(|a| a.address.bank_group != 0));
    }

    #[test]
    fn rfm_pressure_gates_accesses_outside_the_burst_window() {
        let mut pattern = RfmPressurePattern::new(&org(), 1_000, 50);
        // Inside the burst: immediate.
        assert_eq!(pattern.next_access(10).not_before, 10);
        assert_eq!(pattern.next_access(499).not_before, 499);
        // Outside the burst: deferred to the next tREFI boundary.
        assert_eq!(pattern.next_access(500).not_before, 1_000);
        assert_eq!(pattern.next_access(1_999).not_before, 2_000);
        // The address sequence itself is unaffected by `now` (contract
        // rule 3): two patterns polled at different times agree on rows.
        let mut a = RfmPressurePattern::new(&org(), 1_000, 50);
        let mut b = RfmPressurePattern::new(&org(), 1_000, 50);
        for i in 0..64u64 {
            assert_eq!(
                a.next_access(i).address,
                b.next_access(i * 777).address,
                "now must not change the address stream"
            );
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
        for descriptor in attack_registry() {
            assert!(
                descriptor.kind.accesses_to_breach(256) >= 256,
                "{}: budget below NRH",
                descriptor.slug
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
        assert_eq!(line_slots(256, 64), 4);
    }

    #[test]
    fn patterns_work_on_tiny_and_multi_channel_organisations() {
        for org in [
            DramOrganization::tiny_for_tests(),
            DramOrganization::ddr5_32gb_quad_rank().with_channels(4),
        ] {
            for descriptor in attack_registry() {
                let mut pattern = descriptor.kind.build(&org, T_REFI, 3);
                for _ in 0..64 {
                    let a = pattern.next_access(0).address;
                    assert!(a.row < org.rows_per_bank, "{}: row", descriptor.slug);
                    assert!(a.column < org.columns_per_row, "{}: col", descriptor.slug);
                    assert!(a.bank_group < org.bank_groups, "{}: bg", descriptor.slug);
                }
            }
        }
    }
}
