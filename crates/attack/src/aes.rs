//! The side-channel victim: the first-round T0 lookups of a T-table AES-128.
//!
//! Crypto libraries such as OpenSSL and GnuPG ship AES implementations whose
//! round function is computed through four 1 KB lookup tables ("T-tables").
//! Each table spans 16 cache lines.  In the first round, state byte `i`
//! indexes table `i mod 4` with `p_i XOR k_i`, so the cache line it touches
//! is `(p_i XOR k_i) >> 4`: with the plaintext known, the line leaks the top
//! nibble of the key byte (the first-round leak of Osvik, Shamir and Tromer,
//! "Cache Attacks and Countermeasures: the Case of AES", CT-RSA 2006).
//!
//! That leak is all PRACLeak's side channel observes.  The attacker flushes
//! T0 from the cache hierarchy, so each first-round T0 lookup becomes a DRAM
//! activation of that line's row.  The chosen byte `p0` pins one of the four
//! lookups to the line of `k0`; the later rounds index with bytes mixed
//! through the whole state and key schedule, so with random plaintext bytes
//! they add background activations to every line, not a hot row that tracks
//! `k0`.  So the victim is modelled as exactly the four first-round T0
//! lookups per encryption ([`first_round_t0_lines`]).  No ciphertext is
//! ever read, so no key schedule, S-box or later round is computed.

/// Number of cache lines spanned by one 1 KB T-table (64-byte lines).
pub const T_TABLE_CACHE_LINES: usize = 16;

/// Returns the T0 cache-line indices (0..16) touched during the first round of
/// one encryption under `key`: the lines indexed by state bytes 0, 4, 8 and 12
/// (the bytes that use table T0), in that order.  Each line is
/// `(p_i XOR k_i) >> 4`: 256 four-byte entries, 16 to a 64-byte line.
#[must_use]
pub fn first_round_t0_lines(key: &[u8; 16], plaintext: &[u8; 16]) -> [usize; 4] {
    [0, 4, 8, 12].map(|i| usize::from((plaintext[i] ^ key[i]) >> 4))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn t0_lines_expose_top_nibble_of_key_byte0() {
        for k0 in [0x00u8, 0x30, 0x5A, 0xF1] {
            let mut key = [0u8; 16];
            key[0] = k0;
            let plaintext = [0u8; 16]; // p0 = 0 ⇒ x0 = k0
            let lines = first_round_t0_lines(&key, &plaintext);
            assert_eq!(lines, [usize::from(k0 >> 4), 0, 0, 0]);
        }
    }

    proptest! {
        /// The four lines are the top nibbles of `p XOR k` at state bytes 0,
        /// 4, 8 and 12, and always index inside the table.
        #[test]
        fn t0_lines_are_top_nibbles_of_p_xor_k(key in proptest::array::uniform16(0u8..), plaintext in proptest::array::uniform16(0u8..)) {
            let lines = first_round_t0_lines(&key, &plaintext);
            for (slot, byte) in [0usize, 4, 8, 12].into_iter().enumerate() {
                prop_assert_eq!(lines[slot], usize::from((plaintext[byte] ^ key[byte]) >> 4));
                prop_assert!(lines[slot] < T_TABLE_CACHE_LINES);
            }
        }
    }
}
