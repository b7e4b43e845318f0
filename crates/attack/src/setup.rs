//! Shared experiment setup: building a PRAC-enabled memory system in the
//! configuration the attacks assume, and computing victim/attacker addresses
//! that share (or deliberately do not share) DRAM rows.

use dram_sim::device::DramDeviceConfig;
use dram_sim::org::DramAddress;
use memctrl::controller::{ControllerConfig, MemoryController, PagePolicy};
use memctrl::mapping::MappingKind;
use prac_core::config::{MitigationPolicy, PracConfig, PracLevel};
use serde::{Deserialize, Serialize};

/// Configuration of an attack experiment's memory system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackSetup {
    /// Back-Off threshold (`NBO`) of the PRAC device (and the RowHammer
    /// threshold, kept equal for the attack studies).
    pub nbo: u32,
    /// PRAC level: RFMs issued per Alert.
    pub prac_level: PracLevel,
    /// Mitigation policy run by the controller.
    pub policy: MitigationPolicy,
    /// Whether periodic refresh is modelled.  The attacks disable it by
    /// default: refresh stalls (410 ns every 3.9 µs) are strictly periodic,
    /// so a real attacker filters them out trivially; removing them keeps the
    /// decoders in this reproduction simple without changing the channel.
    pub refresh_enabled: bool,
    /// Whether per-row PRAC counters reset every tREFW.
    pub counter_reset: bool,
    /// Targeted-Refresh cadence of the device (`None` disables TREF).  Only
    /// observable when refresh is enabled.
    pub tref_every_n_refreshes: Option<u32>,
}

impl AttackSetup {
    /// Default attack setup: `NBO = 256`, PRAC-1, ABO-only mitigation,
    /// bank-striped mapping, refresh disabled.
    #[must_use]
    pub fn new(nbo: u32) -> Self {
        Self {
            nbo,
            prac_level: PracLevel::One,
            policy: MitigationPolicy::AboOnly,
            refresh_enabled: false,
            counter_reset: true,
            tref_every_n_refreshes: None,
        }
    }

    /// Selects the PRAC level (RFMs per Alert).
    #[must_use]
    pub fn with_prac_level(mut self, level: PracLevel) -> Self {
        self.prac_level = level;
        self
    }

    /// Selects the mitigation policy (e.g. the TPRAC defense).
    #[must_use]
    pub fn with_policy(mut self, policy: MitigationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables or disables periodic refresh.
    #[must_use]
    pub fn with_refresh(mut self, enabled: bool) -> Self {
        self.refresh_enabled = enabled;
        self
    }

    /// Selects whether per-row PRAC counters reset every tREFW.
    #[must_use]
    pub fn with_counter_reset(mut self, reset: bool) -> Self {
        self.counter_reset = reset;
        self
    }

    /// Selects the Targeted-Refresh cadence (`None` disables TREF).
    #[must_use]
    pub fn with_tref_every(mut self, every_n_refreshes: Option<u32>) -> Self {
        self.tref_every_n_refreshes = every_n_refreshes;
        self
    }

    /// Builds the memory controller (full DDR5 organisation, bank-striped
    /// mapping so that victim and attacker pages can share a DRAM row,
    /// closed-page policy so every serialized access is an activation).
    #[must_use]
    pub fn build_controller(&self) -> MemoryController {
        let prac = PracConfig::builder()
            .rowhammer_threshold(self.nbo)
            .back_off_threshold(self.nbo)
            .prac_level(self.prac_level)
            .counter_reset_every_trefw(self.counter_reset)
            .policy(self.policy.clone())
            .build();
        let device = DramDeviceConfig {
            prac,
            tref_every_n_refreshes: self.tref_every_n_refreshes,
            ..DramDeviceConfig::paper_default()
        };
        let controller_config = ControllerConfig {
            mapping: MappingKind::BankStriped,
            page_policy: PagePolicy::Closed,
            refresh_enabled: self.refresh_enabled,
        };
        MemoryController::new(device, controller_config)
    }

    /// Physical address of column `column` in `row` of bank 0 / bank-group
    /// `bank_group` / rank 0.  Victim and attacker use the same `(bank, row)`
    /// with different columns to model two pages sharing one DRAM row.
    #[must_use]
    pub fn row_address(
        &self,
        controller: &MemoryController,
        bank_group: u32,
        row: u32,
        column: u32,
    ) -> u64 {
        let org = controller.device().config().organization;
        controller.encode_address(&DramAddress::new(&org, 0, bank_group, 0, row, column))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_setup_builds_a_closed_page_controller() {
        let setup = AttackSetup::new(256);
        let ctrl = setup.build_controller();
        assert_eq!(ctrl.config().page_policy, PagePolicy::Closed);
        assert!(!ctrl.config().refresh_enabled);
        assert_eq!(ctrl.device().config().prac.back_off_threshold, 256);
    }

    #[test]
    fn victim_and_attacker_columns_share_a_row() {
        let setup = AttackSetup::new(256);
        let ctrl = setup.build_controller();
        let victim = setup.row_address(&ctrl, 0, 42, 0);
        let attacker = setup.row_address(&ctrl, 0, 42, 7);
        assert_ne!(victim, attacker);
        assert!(ctrl
            .decode_address(victim)
            .same_row(&ctrl.decode_address(attacker)));
        // And they belong to different 4 KB pages, as the threat model needs.
        assert_ne!(victim >> 12, attacker >> 12);
    }

    #[test]
    fn different_rows_map_to_the_same_bank() {
        let setup = AttackSetup::new(256);
        let ctrl = setup.build_controller();
        let a = ctrl.decode_address(setup.row_address(&ctrl, 0, 1, 0));
        let b = ctrl.decode_address(setup.row_address(&ctrl, 0, 2, 0));
        assert!(a.same_bank(&b));
        assert_ne!(a.row, b.row);
    }

    #[test]
    fn prac_level_is_propagated() {
        let setup = AttackSetup::new(512).with_prac_level(PracLevel::Four);
        let ctrl = setup.build_controller();
        assert_eq!(ctrl.device().config().prac.rfms_per_alert(), 4);
    }
}
