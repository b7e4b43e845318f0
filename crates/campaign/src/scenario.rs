//! The declarative scenario model.
//!
//! A [`Scenario`] is one cell of the paper's evaluation matrix — a mitigation
//! setup × RowHammer threshold × workload × instruction budget for the
//! performance figures, or the equivalent declarative description of an
//! attack / analytical experiment for the security figures.  A [`Campaign`]
//! is a named, ordered list of scenarios (one paper figure or table).
//!
//! Scenarios are *data*: they serialise to canonical JSON (the `serde_json`
//! shim keeps object members sorted), and the [`Scenario::key`] cache key is
//! a stable FNV-1a hash of that canonical form prefixed with the simulator's
//! [`SIM_REVISION`].  Any change to any field — threshold, seed, budget,
//! workload shape — changes the key, which is what lets the incremental
//! result cache re-run only the cells that changed; bumping the revision
//! when simulation semantics change retires every stale cache entry at once.

use dram_sim::{DeviceProfile, DramOrganization};
use prac_core::config::PracLevel;
use prac_core::queue::QueueKind;
use prac_core::tprac::TrefRate;
use pracleak::covert::CovertChannelKind;
use serde_json::{Map, Value};
use system_sim::MitigationSetup;
use workloads::attack::AttackKind;
use workloads::{MemoryIntensity, WorkloadGroup, WorkloadSpec};

/// Simulation-semantics revision mixed into every cache key.
///
/// Bump this whenever a change alters simulation *results* without changing
/// any scenario field — e.g. revision 2 covers the FR-FCFS hit-streak
/// accounting fix that landed with the event-driven engine.  Bumping it
/// orphans every existing `target/campaigns/cache/` entry (they simply miss
/// and re-execute), which is exactly the point: a cached metric must always
/// mean "what the current simulator would produce".  The golden snapshot in
/// `tests/cache_key_snapshot.rs` pins the combined effect of this constant
/// and the canonical spec serialisation.
pub const SIM_REVISION: u32 = 2;

/// One cell of a campaign: a unique name plus the declarative spec.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Name of the cell, unique within its campaign (used in reports and
    /// artifact rows).
    pub name: String,
    /// What to run.
    pub spec: ScenarioSpec,
}

impl Scenario {
    /// Creates a scenario.
    pub fn new(name: impl Into<String>, spec: ScenarioSpec) -> Self {
        Self {
            name: name.into(),
            spec,
        }
    }

    /// Stable 64-bit cache key of the scenario *configuration* (the name is
    /// excluded, so renaming a cell does not invalidate its cached result).
    ///
    /// The simulator's semantics revision is mixed into the hash, so results
    /// cached by a binary with different simulation behaviour miss instead
    /// of being silently mixed with fresh ones.
    #[must_use]
    pub fn key(&self) -> u64 {
        fnv1a64(key_preimage(&self.spec).as_bytes())
    }
}

/// The cache-key preimage: the revision prefix plus the canonical spec JSON.
/// [`Scenario::key`] is the FNV-1a hash of exactly these bytes, and the
/// result store uses the same string as the record *identity* — which is
/// what makes store keys and pre-existing cache keys the same keys.
#[must_use]
pub fn key_preimage(spec: &ScenarioSpec) -> String {
    let mut preimage = format!("sim-r{SIM_REVISION}:");
    preimage.push_str(&spec.to_json().to_string());
    preimage
}

/// A named, ordered scenario matrix — typically one paper figure or table.
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Registry name (`fig10`, `table5`, …).
    pub name: String,
    /// One-line human title.
    pub title: String,
    /// What the paper reports for this figure, for context in artifacts.
    pub reference: String,
    /// The ordered scenario matrix.
    pub scenarios: Vec<Scenario>,
}

impl Campaign {
    /// Creates an empty campaign.
    pub fn new(
        name: impl Into<String>,
        title: impl Into<String>,
        reference: impl Into<String>,
    ) -> Self {
        Self {
            name: name.into(),
            title: title.into(),
            reference: reference.into(),
            scenarios: Vec::new(),
        }
    }

    /// Adds a scenario.
    pub fn push(&mut self, scenario: Scenario) {
        self.scenarios.push(scenario);
    }
}

/// A full-system performance cell: one protected run and one baseline run of
/// the same workload, reported as normalised performance.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfScenario {
    /// The mitigation configuration under test.
    pub setup: MitigationSetup,
    /// RowHammer threshold (`NRH`, with `NBO` set equal to it).
    pub rowhammer_threshold: u32,
    /// PRAC level (RFMs per Alert).
    pub prac_level: PracLevel,
    /// The workload (with its intensity/group labels).
    pub workload: WorkloadSpec,
    /// Instructions per core.
    pub instructions_per_core: u64,
    /// Number of cores running copies of the workload.
    pub cores: u32,
    /// Number of memory channels (1 reproduces the paper's system).
    pub channels: u32,
    /// Rank-count override (`0` keeps the organisation's default rank count
    /// and the exact pre-rank cache keys).
    pub ranks: u32,
    /// Named device timing profile ([`DeviceProfile::JedecBaseline`]
    /// reproduces the paper's system and its exact cache keys).
    pub profile: DeviceProfile,
    /// Optional adversarial co-runner on one extra core (`None` reproduces
    /// the paper's benign runs and their exact cache keys).
    pub attack: Option<AttackKind>,
    /// Trace-generation seed: the entire run is a pure function of the
    /// scenario including this value.
    pub seed: u64,
}

/// The declarative description of what a scenario runs.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioSpec {
    /// Figure 10–14 / Table 5 style performance cell.
    Perf(Box<PerfScenario>),
    /// Figure 3: attacker-observed latency with / without concurrent ABOs.
    AboLatency {
        /// `Some(level)` runs the victim hammer alongside the attacker;
        /// `None` is the "No ABO" panel.
        prac_level: Option<PracLevel>,
        /// Back-Off threshold.
        nbo: u32,
        /// Observation window in nanoseconds.
        window_ns: f64,
    },
    /// Figure 4 / 5 / 9: one instance of the AES T-table side channel.
    SideChannel {
        /// Back-Off threshold.
        nbo: u32,
        /// Encryptions in the victim phase.
        encryptions: u32,
        /// Secret key byte 0.
        k0: u8,
        /// Fixed plaintext byte 0.
        p0: u8,
        /// Run under the TPRAC defense instead of plain ABO.
        defended: bool,
        /// Experiment seed.
        seed: u64,
    },
    /// Figure 7 (left): worst-case activations (TMAX) over the standard
    /// TB-Window sweep.
    TmaxSeries {
        /// Back-Off threshold.
        nbo: u32,
        /// Whether per-row counters reset every tREFW.
        counter_reset: bool,
    },
    /// Figure 7 (right): solved TB-Window for a RowHammer threshold.
    SolveWindow {
        /// RowHammer threshold.
        nrh: u32,
        /// Whether per-row counters reset every tREFW.
        counter_reset: bool,
    },
    /// Table 2: one covert-channel measurement point.
    Covert {
        /// Channel variant.
        kind: CovertChannelKind,
        /// Back-Off threshold.
        nbo: u32,
        /// Symbols transmitted.
        symbols: usize,
        /// Channel seed.
        seed: u64,
    },
    /// Section 6.8: storage overhead of one mitigation-queue design.
    Storage {
        /// Queue design.
        queue: QueueKind,
        /// Banks per channel.
        banks: u32,
    },
    /// `attacks` campaign cell: one registered attack pattern raced against
    /// one registered mitigation at a RowHammer threshold, through the
    /// serialized flush+access attacker model of `pracleak::adversary`.
    Attack {
        /// The attack pattern under test.
        attack: AttackKind,
        /// The defending mitigation configuration.
        setup: MitigationSetup,
        /// RowHammer threshold (`NBO` set equal to it).
        nrh: u32,
        /// Serialized attacker accesses per run.
        accesses: u64,
        /// Device timing profile of the defending DRAM
        /// ([`DeviceProfile::JedecBaseline`] keeps the pre-profile cache
        /// keys; the vendor profiles add the on-die ECC adjudication to the
        /// cell's security metrics).
        profile: DeviceProfile,
        /// Seed mixed into the pattern's own seeded streams.
        seed: u64,
    },
}

impl ScenarioSpec {
    /// Canonical JSON form of the spec.  This is the serialisation the cache
    /// key hashes and the artifact store embeds, so it must be stable: the
    /// `serde_json` shim's sorted objects plus the explicit field names here
    /// guarantee that.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let mut map = Map::new();
        match self {
            ScenarioSpec::Perf(perf) => {
                map.insert("kind".into(), "perf".into());
                map.insert("setup".into(), setup_to_json(&perf.setup));
                map.insert("nrh".into(), perf.rowhammer_threshold.into());
                map.insert("prac_level".into(), perf.prac_level.rfms_per_alert().into());
                map.insert("workload".into(), workload_spec_to_json(&perf.workload));
                map.insert(
                    "instructions_per_core".into(),
                    perf.instructions_per_core.into(),
                );
                map.insert("cores".into(), perf.cores.into());
                // Emitted only for multi-channel cells: single-channel specs
                // keep the exact canonical JSON (and therefore cache key)
                // they had before the channel dimension existed, so no
                // cached result is orphaned by the field's introduction.
                if perf.channels > 1 {
                    map.insert("channels".into(), perf.channels.into());
                }
                // Same key-stability rule as `channels`: `0` means "no rank
                // override" and is omitted, so every pre-rank spec keeps its
                // exact canonical JSON and cache key.
                if perf.ranks > 0 {
                    map.insert("ranks".into(), perf.ranks.into());
                }
                // And again for the device profile: the JEDEC baseline (the
                // paper's system) is omitted.
                if perf.profile != DeviceProfile::JedecBaseline {
                    map.insert("profile".into(), perf.profile.slug().into());
                }
                // Same key-stability rule as `channels`: benign cells keep
                // the exact canonical JSON they had before the attacker
                // dimension existed, so no cached result is orphaned.
                if let Some(attack) = &perf.attack {
                    map.insert("attack".into(), attack_to_json(attack));
                }
                map.insert("seed".into(), perf.seed.into());
            }
            ScenarioSpec::AboLatency {
                prac_level,
                nbo,
                window_ns,
            } => {
                map.insert("kind".into(), "abo_latency".into());
                map.insert(
                    "prac_level".into(),
                    prac_level.map_or(Value::Null, |l| l.rfms_per_alert().into()),
                );
                map.insert("nbo".into(), (*nbo).into());
                map.insert("window_ns".into(), (*window_ns).into());
            }
            ScenarioSpec::SideChannel {
                nbo,
                encryptions,
                k0,
                p0,
                defended,
                seed,
            } => {
                map.insert("kind".into(), "side_channel".into());
                map.insert("nbo".into(), (*nbo).into());
                map.insert("encryptions".into(), (*encryptions).into());
                map.insert("k0".into(), u64::from(*k0).into());
                map.insert("p0".into(), u64::from(*p0).into());
                map.insert("defended".into(), (*defended).into());
                map.insert("seed".into(), (*seed).into());
            }
            ScenarioSpec::TmaxSeries { nbo, counter_reset } => {
                map.insert("kind".into(), "tmax_series".into());
                map.insert("nbo".into(), (*nbo).into());
                map.insert("counter_reset".into(), (*counter_reset).into());
            }
            ScenarioSpec::SolveWindow { nrh, counter_reset } => {
                map.insert("kind".into(), "solve_window".into());
                map.insert("nrh".into(), (*nrh).into());
                map.insert("counter_reset".into(), (*counter_reset).into());
            }
            ScenarioSpec::Covert {
                kind,
                nbo,
                symbols,
                seed,
            } => {
                map.insert("kind".into(), "covert".into());
                map.insert(
                    "channel".into(),
                    match kind {
                        CovertChannelKind::ActivityBased => "activity",
                        CovertChannelKind::ActivationCountBased => "activation_count",
                    }
                    .into(),
                );
                map.insert("nbo".into(), (*nbo).into());
                map.insert("symbols".into(), (*symbols).into());
                map.insert("seed".into(), (*seed).into());
            }
            ScenarioSpec::Storage { queue, banks } => {
                map.insert("kind".into(), "storage".into());
                map.insert("queue".into(), queue_kind_to_json(queue));
                map.insert("banks".into(), (*banks).into());
            }
            ScenarioSpec::Attack {
                attack,
                setup,
                nrh,
                accesses,
                profile,
                seed,
            } => {
                map.insert("kind".into(), "attack".into());
                map.insert("attack".into(), attack_to_json(attack));
                map.insert("setup".into(), setup_to_json(setup));
                map.insert("nrh".into(), (*nrh).into());
                map.insert("accesses".into(), (*accesses).into());
                // Key stability: the JEDEC baseline is omitted so every
                // pre-profile attack cell keeps its exact cache key.
                if *profile != DeviceProfile::JedecBaseline {
                    map.insert("profile".into(), profile.slug().into());
                }
                map.insert("seed".into(), (*seed).into());
            }
        }
        Value::Object(map)
    }

    /// Parses a spec back from its canonical JSON form — the inverse of
    /// [`ScenarioSpec::to_json`], used by the serve protocol to turn a query
    /// payload into a runnable cell.  Round-tripping any registry scenario
    /// through `to_json` → `from_json` reproduces the spec (and therefore
    /// the cache key) exactly.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a field is missing, has the
    /// wrong type, or names an unknown kind/policy/pattern.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let kind = value
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("spec missing string `kind`")?;
        match kind {
            "perf" => Ok(ScenarioSpec::Perf(Box::new(PerfScenario {
                setup: setup_from_json(field(value, "setup")?)?,
                rowhammer_threshold: int_field(value, "nrh")?,
                prac_level: prac_level_from_rfms(u64_field(value, "prac_level")?)?,
                workload: workload_spec_from_json(field(value, "workload")?)?,
                instructions_per_core: u64_field(value, "instructions_per_core")?,
                cores: int_field(value, "cores")?,
                // Omitted in canonical JSON when 1 (key stability).
                channels: optional_int_field(value, "channels")?.unwrap_or(1),
                // Omitted in canonical JSON when 0 / baseline (key
                // stability).
                ranks: optional_int_field(value, "ranks")?.unwrap_or(0),
                profile: profile_from_json(value)?,
                // Omitted in canonical JSON when benign (key stability).
                attack: match value.get("attack") {
                    None | Some(Value::Null) => None,
                    Some(attack) => Some(attack_from_json(attack)?),
                },
                seed: u64_field(value, "seed")?,
            }))),
            "abo_latency" => Ok(ScenarioSpec::AboLatency {
                prac_level: match field(value, "prac_level")? {
                    Value::Null => None,
                    rfms => Some(prac_level_from_rfms(
                        rfms.as_u64().ok_or("non-integer `prac_level`")?,
                    )?),
                },
                nbo: int_field(value, "nbo")?,
                window_ns: f64_field(value, "window_ns")?,
            }),
            "side_channel" => Ok(ScenarioSpec::SideChannel {
                nbo: int_field(value, "nbo")?,
                encryptions: int_field(value, "encryptions")?,
                k0: int_field(value, "k0")?,
                p0: int_field(value, "p0")?,
                defended: bool_field(value, "defended")?,
                seed: u64_field(value, "seed")?,
            }),
            "tmax_series" => Ok(ScenarioSpec::TmaxSeries {
                nbo: int_field(value, "nbo")?,
                counter_reset: bool_field(value, "counter_reset")?,
            }),
            "solve_window" => Ok(ScenarioSpec::SolveWindow {
                nrh: int_field(value, "nrh")?,
                counter_reset: bool_field(value, "counter_reset")?,
            }),
            "covert" => Ok(ScenarioSpec::Covert {
                kind: match str_field(value, "channel")? {
                    "activity" => CovertChannelKind::ActivityBased,
                    "activation_count" => CovertChannelKind::ActivationCountBased,
                    other => return Err(format!("unknown covert channel `{other}`")),
                },
                nbo: int_field(value, "nbo")?,
                symbols: int_field(value, "symbols")?,
                seed: u64_field(value, "seed")?,
            }),
            "storage" => Ok(ScenarioSpec::Storage {
                queue: queue_kind_from_json(str_field(value, "queue")?)?,
                banks: int_field(value, "banks")?,
            }),
            "attack" => Ok(ScenarioSpec::Attack {
                attack: attack_from_json(field(value, "attack")?)?,
                setup: setup_from_json(field(value, "setup")?)?,
                nrh: int_field(value, "nrh")?,
                accesses: u64_field(value, "accesses")?,
                profile: profile_from_json(value)?,
                seed: u64_field(value, "seed")?,
            }),
            other => Err(format!("unknown scenario kind `{other}`")),
        }
    }
}

fn field<'v>(value: &'v Value, name: &str) -> Result<&'v Value, String> {
    value.get(name).ok_or_else(|| format!("missing `{name}`"))
}

fn u64_field(value: &Value, name: &str) -> Result<u64, String> {
    field(value, name)?
        .as_u64()
        .ok_or_else(|| format!("missing or non-integer `{name}`"))
}

/// An integer field narrowed to the width of its target: a value that does
/// not fit is an error, never a silently different spec (and cache key).
fn int_field<T: TryFrom<u64>>(value: &Value, name: &str) -> Result<T, String> {
    narrow(u64_field(value, name)?, name)
}

/// An integer field omitted from canonical JSON when it holds its default:
/// absent is `None`, present must be an integer that fits.
fn optional_int_field<T: TryFrom<u64>>(value: &Value, name: &str) -> Result<Option<T>, String> {
    match value.get(name) {
        None => Ok(None),
        Some(_) => int_field(value, name).map(Some),
    }
}

fn narrow<T: TryFrom<u64>>(raw: u64, name: &str) -> Result<T, String> {
    T::try_from(raw).map_err(|_| format!("out of range `{name}`: {raw}"))
}

fn f64_field(value: &Value, name: &str) -> Result<f64, String> {
    field(value, name)?
        .as_f64()
        .ok_or_else(|| format!("missing or non-numeric `{name}`"))
}

fn bool_field(value: &Value, name: &str) -> Result<bool, String> {
    field(value, name)?
        .as_bool()
        .ok_or_else(|| format!("missing or non-boolean `{name}`"))
}

fn str_field<'v>(value: &'v Value, name: &str) -> Result<&'v str, String> {
    field(value, name)?
        .as_str()
        .ok_or_else(|| format!("missing or non-string `{name}`"))
}

/// Parses the string member `name` through an enum's `from_slug`.
fn slug_field<T>(
    value: &Value,
    name: &str,
    what: &str,
    parse: fn(&str) -> Option<T>,
) -> Result<T, String> {
    let slug = str_field(value, name)?;
    parse(slug).ok_or_else(|| format!("unknown {what} `{slug}`"))
}

/// Parses the optional `profile` member of a spec object: omitted (the
/// canonical form of the JEDEC baseline) resolves to the default profile.
fn profile_from_json(value: &Value) -> Result<DeviceProfile, String> {
    match value.get("profile") {
        None | Some(Value::Null) => Ok(DeviceProfile::JedecBaseline),
        Some(profile) => {
            let slug = profile.as_str().ok_or("non-string `profile`")?;
            DeviceProfile::parse(slug).ok_or_else(|| format!("unknown device profile `{slug}`"))
        }
    }
}

fn prac_level_from_rfms(rfms: u64) -> Result<PracLevel, String> {
    match rfms {
        1 => Ok(PracLevel::One),
        2 => Ok(PracLevel::Two),
        4 => Ok(PracLevel::Four),
        other => Err(format!("no PRAC level issues {other} RFMs per Alert")),
    }
}

fn setup_from_json(value: &Value) -> Result<MitigationSetup, String> {
    match str_field(value, "policy")? {
        "baseline_no_abo" => Ok(MitigationSetup::BaselineNoAbo),
        "abo_only" => Ok(MitigationSetup::AboOnly),
        "abo_plus_acb_rfm" => Ok(MitigationSetup::AboPlusAcbRfm),
        "tprac" => Ok(MitigationSetup::Tprac {
            tref_rate: match field(value, "tref_per_trefi")? {
                Value::Null => TrefRate::None,
                n => TrefRate::EveryTrefi(narrow(
                    n.as_u64().ok_or("non-integer `tref_per_trefi`")?,
                    "tref_per_trefi",
                )?),
            },
            counter_reset: bool_field(value, "counter_reset")?,
        }),
        "prfm" => Ok(MitigationSetup::Prfm {
            every_trefi: int_field(value, "every_trefi")?,
        }),
        "para" => Ok(MitigationSetup::Para {
            one_in: int_field(value, "one_in")?,
            seed: u64_field(value, "para_seed")?,
        }),
        other => Err(format!("unknown mitigation policy `{other}`")),
    }
}

/// Parses an attack kind and refuses one that would run a different
/// configuration from the one it names on the paper organisation (see
/// [`AttackKind::validate`]) before anything is allocated or simulated.
fn attack_from_json(value: &Value) -> Result<AttackKind, String> {
    let attack = match str_field(value, "pattern")? {
        "single_sided" => AttackKind::SingleSided,
        "double_sided" => AttackKind::DoubleSided,
        "many_sided" => AttackKind::ManySided {
            sides: int_field(value, "sides")?,
        },
        "half_double" => AttackKind::HalfDouble,
        "decoy_blast" => AttackKind::DecoyBlast {
            decoys: int_field(value, "decoys")?,
            seed: u64_field(value, "decoy_seed")?,
        },
        "rfm_pressure" => AttackKind::RfmPressure {
            duty_percent: int_field(value, "duty_percent")?,
        },
        other => return Err(format!("unknown attack pattern `{other}`")),
    };
    attack
        .validate(&DramOrganization::ddr5_32gb_quad_rank())
        .map_err(|error| error.to_string())?;
    Ok(attack)
}

fn workload_spec_from_json(value: &Value) -> Result<WorkloadSpec, String> {
    Ok(WorkloadSpec {
        workload: workloads::SyntheticWorkload {
            name: str_field(value, "name")?.to_string(),
            mem_ops_per_kilo_instr: int_field(value, "mem_ops_per_kilo_instr")?,
            store_fraction: f64_field(value, "store_fraction")?,
            pattern: slug_field(
                value,
                "pattern",
                "access pattern",
                workloads::AccessPattern::from_slug,
            )?,
            footprint_bytes: u64_field(value, "footprint_bytes")?,
            base_address: u64_field(value, "base_address")?,
        },
        intensity: slug_field(value, "intensity", "intensity", MemoryIntensity::from_slug)?,
        group: slug_field(value, "group", "workload group", WorkloadGroup::from_slug)?,
    })
}

fn queue_kind_from_json(text: &str) -> Result<QueueKind, String> {
    if let Some(capacity) = text.strip_prefix("fifo_") {
        return Ok(QueueKind::Fifo {
            capacity: capacity
                .parse()
                .map_err(|_| format!("bad FIFO capacity in `{text}`"))?,
        });
    }
    match text {
        "single_entry_frequency" => Ok(QueueKind::SingleEntryFrequency),
        "priority" => Ok(QueueKind::Priority),
        other => Err(format!("unknown queue kind `{other}`")),
    }
}

/// Canonical JSON form of an attack kind (the attacker-side mirror of
/// [`setup_to_json`]).  Field spellings are pinned by the cache-key golden
/// snapshot — additive changes only.
fn attack_to_json(attack: &AttackKind) -> Value {
    let mut map = Map::new();
    match attack {
        AttackKind::SingleSided => {
            map.insert("pattern".into(), "single_sided".into());
        }
        AttackKind::DoubleSided => {
            map.insert("pattern".into(), "double_sided".into());
        }
        AttackKind::ManySided { sides } => {
            map.insert("pattern".into(), "many_sided".into());
            map.insert("sides".into(), (*sides).into());
        }
        AttackKind::HalfDouble => {
            map.insert("pattern".into(), "half_double".into());
        }
        AttackKind::DecoyBlast { decoys, seed } => {
            map.insert("pattern".into(), "decoy_blast".into());
            map.insert("decoys".into(), (*decoys).into());
            map.insert("decoy_seed".into(), (*seed).into());
        }
        AttackKind::RfmPressure { duty_percent } => {
            map.insert("pattern".into(), "rfm_pressure".into());
            map.insert("duty_percent".into(), (*duty_percent).into());
        }
    }
    Value::Object(map)
}

fn setup_to_json(setup: &MitigationSetup) -> Value {
    let mut map = Map::new();
    match setup {
        MitigationSetup::BaselineNoAbo => {
            map.insert("policy".into(), "baseline_no_abo".into());
        }
        MitigationSetup::AboOnly => {
            map.insert("policy".into(), "abo_only".into());
        }
        MitigationSetup::AboPlusAcbRfm => {
            map.insert("policy".into(), "abo_plus_acb_rfm".into());
        }
        MitigationSetup::Tprac {
            tref_rate,
            counter_reset,
        } => {
            map.insert("policy".into(), "tprac".into());
            map.insert(
                "tref_per_trefi".into(),
                match tref_rate {
                    TrefRate::None => Value::Null,
                    TrefRate::EveryTrefi(n) => (*n).into(),
                },
            );
            map.insert("counter_reset".into(), (*counter_reset).into());
        }
        MitigationSetup::Prfm { every_trefi } => {
            map.insert("policy".into(), "prfm".into());
            map.insert("every_trefi".into(), (*every_trefi).into());
        }
        MitigationSetup::Para { one_in, seed } => {
            map.insert("policy".into(), "para".into());
            map.insert("one_in".into(), (*one_in).into());
            map.insert("para_seed".into(), (*seed).into());
        }
    }
    Value::Object(map)
}

fn workload_spec_to_json(spec: &WorkloadSpec) -> Value {
    let w = &spec.workload;
    let mut map = Map::new();
    map.insert("name".into(), w.name.as_str().into());
    map.insert(
        "mem_ops_per_kilo_instr".into(),
        w.mem_ops_per_kilo_instr.into(),
    );
    map.insert("store_fraction".into(), w.store_fraction.into());
    map.insert("pattern".into(), w.pattern.slug().into());
    map.insert("footprint_bytes".into(), w.footprint_bytes.into());
    map.insert("base_address".into(), w.base_address.into());
    map.insert("intensity".into(), spec.intensity.slug().into());
    map.insert("group".into(), spec.group.slug().into());
    Value::Object(map)
}

fn queue_kind_to_json(kind: &QueueKind) -> Value {
    match kind {
        QueueKind::SingleEntryFrequency => "single_entry_frequency".into(),
        QueueKind::Fifo { capacity } => format!("fifo_{capacity}").into(),
        QueueKind::Priority => "priority".into(),
    }
}

/// 64-bit FNV-1a: simple, dependency-free and stable across platforms and
/// compiler versions (unlike `DefaultHasher`, whose algorithm is unspecified).
/// Delegates to the result store's hash so the campaign layer and the store
/// provably address content with the same function.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    result_store::fnv1a64(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prac_core::tprac::TrefRate;
    use workloads::quick_suite;

    fn perf_scenario(nrh: u32) -> Scenario {
        Scenario::new(
            "cell",
            ScenarioSpec::Perf(Box::new(PerfScenario {
                setup: MitigationSetup::Tprac {
                    tref_rate: TrefRate::None,
                    counter_reset: true,
                },
                rowhammer_threshold: nrh,
                prac_level: PracLevel::One,
                workload: quick_suite().remove(0),
                instructions_per_core: 10_000,
                cores: 2,
                channels: 1,
                ranks: 0,
                profile: DeviceProfile::JedecBaseline,
                attack: None,
                seed: 7,
            })),
        )
    }

    #[test]
    fn same_config_hashes_identically() {
        assert_eq!(perf_scenario(1024).key(), perf_scenario(1024).key());
    }

    #[test]
    fn changed_threshold_changes_the_key() {
        assert_ne!(perf_scenario(1024).key(), perf_scenario(2048).key());
    }

    #[test]
    fn changed_seed_changes_the_key() {
        let a = perf_scenario(1024);
        let mut b = a.clone();
        if let ScenarioSpec::Perf(perf) = &mut b.spec {
            perf.seed = 8;
        }
        assert_ne!(a.key(), b.key());
    }

    #[test]
    fn renaming_does_not_change_the_key() {
        let a = perf_scenario(1024);
        let mut b = a.clone();
        b.name = "renamed".into();
        assert_eq!(a.key(), b.key());
    }

    #[test]
    fn single_channel_specs_omit_the_channel_field() {
        // Key-stability guarantee: a channels = 1 cell serialises exactly as
        // it did before the channel dimension existed.
        let json = perf_scenario(1024).spec.to_json().to_string();
        assert!(
            !json.contains("channels"),
            "unexpected channel field: {json}"
        );
    }

    #[test]
    fn benign_specs_omit_the_attack_field() {
        // Same key-stability guarantee for the attacker dimension.
        let json = perf_scenario(1024).spec.to_json().to_string();
        assert!(!json.contains("attack"), "unexpected attack field: {json}");
    }

    #[test]
    fn attacked_perf_cells_change_the_key() {
        let benign = perf_scenario(1024);
        let mut attacked = benign.clone();
        if let ScenarioSpec::Perf(perf) = &mut attacked.spec {
            perf.attack = Some(AttackKind::ManySided { sides: 8 });
        }
        assert_ne!(benign.key(), attacked.key());
        let json = attacked.spec.to_json().to_string();
        assert!(json.contains("\"attack\""), "{json}");
        assert!(json.contains("many_sided"), "{json}");
    }

    #[test]
    fn attack_cells_serialise_canonically_per_kind() {
        let mut keys = std::collections::HashSet::new();
        for attack in workloads::attack::attack_registry() {
            let scenario = Scenario::new(
                "cell",
                ScenarioSpec::Attack {
                    attack,
                    setup: MitigationSetup::AboOnly,
                    nrh: 1024,
                    accesses: 1_000,
                    profile: DeviceProfile::JedecBaseline,
                    seed: 3,
                },
            );
            let json = scenario.spec.to_json();
            assert_eq!(
                json.get("kind").and_then(Value::as_str),
                Some("attack"),
                "{json}"
            );
            assert!(
                keys.insert(scenario.key()),
                "key collision for {}",
                attack.slug()
            );
            // Canonical round trip, like every other kind.
            let text = json.to_string();
            let reparsed: Value = serde_json::from_str(&text).unwrap();
            assert_eq!(reparsed.to_string(), text);
        }
    }

    #[test]
    fn default_rank_and_profile_are_omitted_from_the_canonical_json() {
        // Key-stability guarantee: a cell with no rank override on the JEDEC
        // baseline profile serialises exactly as it did before either
        // dimension existed, for both perf and attack kinds.
        let json = perf_scenario(1024).spec.to_json().to_string();
        assert!(!json.contains("ranks"), "unexpected ranks field: {json}");
        assert!(
            !json.contains("profile"),
            "unexpected profile field: {json}"
        );
        let attack = ScenarioSpec::Attack {
            attack: AttackKind::SingleSided,
            setup: MitigationSetup::AboOnly,
            nrh: 1024,
            accesses: 1_000,
            profile: DeviceProfile::JedecBaseline,
            seed: 3,
        };
        let json = attack.to_json().to_string();
        assert!(
            !json.contains("profile"),
            "unexpected profile field: {json}"
        );
    }

    #[test]
    fn changed_ranks_or_profile_change_the_key_and_round_trip() {
        let base = perf_scenario(1024);
        let mut ranked = base.clone();
        if let ScenarioSpec::Perf(perf) = &mut ranked.spec {
            perf.ranks = 2;
        }
        assert_ne!(base.key(), ranked.key());
        assert!(ranked.spec.to_json().to_string().contains("\"ranks\":2"));
        assert_eq!(
            ScenarioSpec::from_json(&ranked.spec.to_json()).unwrap(),
            ranked.spec
        );

        let mut profiled = base.clone();
        if let ScenarioSpec::Perf(perf) = &mut profiled.spec {
            perf.profile = DeviceProfile::VendorA;
        }
        assert_ne!(base.key(), profiled.key());
        assert_ne!(ranked.key(), profiled.key());
        assert!(profiled
            .spec
            .to_json()
            .to_string()
            .contains("\"profile\":\"vendor-a\""));
        assert_eq!(
            ScenarioSpec::from_json(&profiled.spec.to_json()).unwrap(),
            profiled.spec
        );

        let ecc_attack = ScenarioSpec::Attack {
            attack: AttackKind::SingleSided,
            setup: MitigationSetup::AboOnly,
            nrh: 1024,
            accesses: 1_000,
            profile: DeviceProfile::VendorB,
            seed: 3,
        };
        assert!(ecc_attack
            .to_json()
            .to_string()
            .contains("\"profile\":\"vendor-b\""));
        assert_eq!(
            ScenarioSpec::from_json(&ecc_attack.to_json()).unwrap(),
            ecc_attack
        );
    }

    #[test]
    fn unknown_profiles_are_rejected_by_from_json() {
        let bad = serde_json::from_str(
            r#"{"kind":"attack","attack":{"pattern":"single_sided"},"setup":{"policy":"abo_only"},"nrh":1024,"accesses":1000,"profile":"vendor-z","seed":3}"#,
        )
        .unwrap();
        assert!(ScenarioSpec::from_json(&bad)
            .unwrap_err()
            .contains("vendor-z"));
    }

    #[test]
    fn changed_channel_count_changes_the_key() {
        let a = perf_scenario(1024);
        let mut b = a.clone();
        if let ScenarioSpec::Perf(perf) = &mut b.spec {
            perf.channels = 4;
        }
        assert_ne!(a.key(), b.key());
        assert!(b.spec.to_json().to_string().contains("channels"));
    }

    #[test]
    fn every_registry_scenario_roundtrips_through_from_json() {
        // `from_json` must be an exact inverse of `to_json` for every cell
        // the registry can produce — specs, and therefore cache keys, must
        // survive the serve protocol's JSON hop bit-for-bit.
        for profile in [
            crate::registry::Profile::quick(),
            crate::registry::Profile::full(),
        ] {
            for campaign in crate::registry::all_campaigns(&profile) {
                for scenario in &campaign.scenarios {
                    let json = scenario.spec.to_json();
                    let parsed = ScenarioSpec::from_json(&json).unwrap_or_else(|error| {
                        panic!("{}/{}: {error}", campaign.name, scenario.name)
                    });
                    assert_eq!(parsed, scenario.spec, "{}/{}", campaign.name, scenario.name);
                    assert_eq!(parsed.to_json().to_string(), json.to_string());
                }
            }
        }
    }

    #[test]
    fn from_json_rejects_unknown_kinds_and_bad_fields() {
        let bad = serde_json::from_str(r#"{"kind":"warp_drive"}"#).unwrap();
        assert!(ScenarioSpec::from_json(&bad)
            .unwrap_err()
            .contains("warp_drive"));
        let missing = serde_json::from_str(r#"{"kind":"solve_window","nrh":512}"#).unwrap();
        assert!(ScenarioSpec::from_json(&missing)
            .unwrap_err()
            .contains("counter_reset"));
        let not_an_object = serde_json::from_str("42").unwrap();
        assert!(ScenarioSpec::from_json(&not_an_object).is_err());
    }

    #[test]
    fn from_json_rejects_values_that_do_not_fit_their_field() {
        let error = |text: &str| {
            ScenarioSpec::from_json(&serde_json::from_str(text).unwrap())
                .expect_err("an out-of-range value must not parse")
        };
        // u32: 2^32 + 1024 must not wrap to NRH 1024 and alias its key.
        assert!(
            error(r#"{"kind":"solve_window","nrh":4294968320,"counter_reset":true}"#)
                .contains("out of range `nrh`")
        );
        // u8: a key byte of 256 must not wrap to 0.
        assert!(error(
            r#"{"kind":"side_channel","nbo":256,"encryptions":1,"k0":256,"p0":0,"defended":false,"seed":0}"#
        )
        .contains("out of range `k0`"));
        // Nested fields narrow the same way.
        assert!(error(
            r#"{"kind":"attack","attack":{"pattern":"many_sided","sides":4294967300},"setup":{"policy":"abo_only"},"nrh":1024,"accesses":1,"seed":0}"#
        )
        .contains("out of range `sides`"));
        // Attack kinds that fit their field but would run a different
        // configuration: too few or too many aggressors (a served u32::MAX
        // would otherwise allocate ~100 GB of hot rows), or a duty outside
        // 1-100%.
        let attack = |fields: &str| {
            error(&format!(
                r#"{{"kind":"attack","attack":{{{fields}}},"setup":{{"policy":"abo_only"}},"nrh":1024,"accesses":1,"seed":0}}"#
            ))
        };
        for sides in [0u64, 1, 32_769, 4_294_967_295] {
            let message = attack(&format!(r#""pattern":"many_sided","sides":{sides}"#));
            assert!(message.contains("`sides`"), "{sides}: {message}");
        }
        for duty in [0u64, 101, 4_294_967_295] {
            let message = attack(&format!(
                r#""pattern":"rfm_pressure","duty_percent":{duty}"#
            ));
            assert!(message.contains("`duty_percent`"), "{duty}: {message}");
        }
        // The co-runner of a perf cell is refused the same way.
        let mut perf = perf_scenario(1024).spec.to_json().to_string();
        perf.insert_str(
            perf.len() - 1,
            r#","attack":{"pattern":"many_sided","sides":1}"#,
        );
        assert!(
            ScenarioSpec::from_json(&serde_json::from_str(&perf).unwrap())
                .unwrap_err()
                .contains("`sides`")
        );
        // The largest set that fits one bank still parses.
        let fits = r#"{"kind":"attack","attack":{"pattern":"many_sided","sides":32768},"setup":{"policy":"abo_only"},"nrh":1024,"accesses":1,"seed":0}"#;
        assert!(ScenarioSpec::from_json(&serde_json::from_str(fits).unwrap()).is_ok());
        // usize (`symbols`) is as wide as u64 on 64-bit targets, so the
        // parser's own "non-integer" check is its only bound there.
    }

    #[test]
    fn from_json_rejects_present_but_malformed_topology_fields() {
        let with = |name: &str, raw: &str| {
            let mut text = perf_scenario(1024).spec.to_json().to_string();
            text.insert_str(text.len() - 1, &format!(r#","{name}":{raw}"#));
            ScenarioSpec::from_json(&serde_json::from_str(&text).unwrap())
        };
        assert!(with("channels", r#""4""#)
            .unwrap_err()
            .contains("`channels`"));
        assert!(with("ranks", "1.5").unwrap_err().contains("`ranks`"));
        assert!(with("channels", "4294967298")
            .unwrap_err()
            .contains("out of range `channels`"));
        // Absent fields keep their canonical defaults.
        let ScenarioSpec::Perf(perf) = ScenarioSpec::from_json(&perf_scenario(1024).spec.to_json())
            .expect("canonical JSON parses")
        else {
            panic!("a perf spec parses as perf");
        };
        assert_eq!((perf.channels, perf.ranks), (1, 0));
    }

    #[test]
    fn spec_json_is_canonical_and_roundtrips() {
        let json = perf_scenario(1024).spec.to_json();
        let text = json.to_string();
        let reparsed = serde_json::from_str(&text).unwrap();
        assert_eq!(reparsed, json);
        assert_eq!(reparsed.to_string(), text);
    }

    #[test]
    fn every_spec_kind_serialises() {
        let specs = vec![
            ScenarioSpec::AboLatency {
                prac_level: Some(PracLevel::Two),
                nbo: 256,
                window_ns: 2e6,
            },
            ScenarioSpec::SideChannel {
                nbo: 128,
                encryptions: 100,
                k0: 3,
                p0: 0,
                defended: true,
                seed: 1,
            },
            ScenarioSpec::TmaxSeries {
                nbo: 4096,
                counter_reset: false,
            },
            ScenarioSpec::SolveWindow {
                nrh: 512,
                counter_reset: true,
            },
            ScenarioSpec::Covert {
                kind: CovertChannelKind::ActivityBased,
                nbo: 256,
                symbols: 8,
                seed: 2,
            },
            ScenarioSpec::Storage {
                queue: QueueKind::Fifo { capacity: 4 },
                banks: 128,
            },
        ];
        let mut keys = std::collections::HashSet::new();
        for spec in specs {
            let scenario = Scenario::new("s", spec);
            assert!(scenario.spec.to_json().get("kind").is_some());
            assert!(keys.insert(scenario.key()), "key collision across kinds");
        }
    }
}
