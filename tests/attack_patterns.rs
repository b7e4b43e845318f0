//! Property suite for the attack streams: every registered attack kind's
//! stream must emit only addresses that decode to valid [`DramAddress`]es
//! under **every** address mapping and channel count.
//!
//! Concretely, for each `attack_registry()` entry × mapping policy
//! (MOP / bank-striped / row-interleaved) × channels ∈ {1, 2, 4}:
//!
//! * every emitted coordinate is within the organisation's bounds,
//! * encoding the coordinate to a physical address and decoding it back is
//!   the identity (the stream never produces an address the mapping cannot
//!   represent), and
//! * the physical address lies inside the subsystem's capacity.
//!
//! The proptest shim replays a fixed number of cases from a constant seed,
//! so this suite is reproducible bit-for-bit (see `crates/compat/proptest`).

use prac_timing::dram_sim::org::DramOrganization;
use prac_timing::memctrl::mapping::{AddressMap, MappingKind};
use prac_timing::workloads::attack::attack_registry;
use proptest::prelude::*;

const T_REFI_TICKS: u64 = 15_600;

fn mapping_kinds() -> [MappingKind; 2] {
    [MappingKind::Mop, MappingKind::BankStriped]
}

proptest! {
    #[test]
    fn every_pattern_decodes_validly_across_mappings_and_channels(
        pattern_index in 0usize..6,
        mapping_index in 0usize..2,
        channel_exp in 0u32..3,
        seed in 0u64..1 << 16,
    ) {
        let registry = attack_registry();
        prop_assert!(registry.len() >= 6);
        let kind = registry[pattern_index % registry.len()];
        let slug = kind.slug();
        let channels = 1u32 << channel_exp; // 1, 2, 4
        let org = DramOrganization::ddr5_32gb_quad_rank().with_channels(channels);
        prop_assert!(org.is_valid());
        let mapping = AddressMap::new(mapping_kinds()[mapping_index % 2], org);
        let mut stream = kind.stream(&org, T_REFI_TICKS, seed);

        // The declared hot rows are themselves valid, encodable coordinates.
        let hot = stream.hot_rows();
        prop_assert!(!hot.is_empty(), "{}: empty hot-row set", slug);
        for row in &hot {
            let physical = mapping.encode(row);
            prop_assert_eq!(mapping.decode(physical), *row, "{}: hot row", &slug);
        }

        let mut now = 0u64;
        for _ in 0..512 {
            let access = stream.next_access(now);
            now = now.max(access.not_before) + 1;
            let address = access.address;

            // In bounds for the organisation.
            prop_assert!(address.channel < org.channels, "{}: channel", &slug);
            prop_assert!(address.rank < org.ranks, "{}: rank", &slug);
            prop_assert!(address.bank_group < org.bank_groups, "{}: bank group", &slug);
            prop_assert!(address.bank < org.banks_per_group, "{}: bank", &slug);
            prop_assert!(address.row < org.rows_per_bank, "{}: row", &slug);
            prop_assert!(address.column < org.columns_per_row, "{}: column", &slug);

            // Encode → decode is the identity and stays inside the capacity.
            let physical = mapping.encode(&address);
            prop_assert!(
                physical < org.capacity_bytes(),
                "{}: physical {physical:#x} outside capacity",
                &slug
            );
            prop_assert_eq!(
                mapping.decode(physical),
                address,
                "{}: encode/decode round trip",
                &slug
            );
        }
    }
}
