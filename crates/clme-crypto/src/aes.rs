//! AES-128 and AES-256 (FIPS 197), dispatched at runtime.
//!
//! On CPUs with AES-NI every round is one `aesenc`/`aesdec`
//! instruction, and the multi-block calls ([`Aes::encrypt_blocks`])
//! keep several blocks' rounds in flight together. Elsewhere the cipher
//! falls back to the byte-wise [`crate::reference`] implementation,
//! whose S-box is derived from its algebraic definition rather than
//! transcribed. Both paths are validated against the FIPS 197
//! known-answer vectors, and the fast one against the reference on
//! random keys and blocks.
//!
//! The hardware path is constant-time. The reference path is not: its
//! S-box lookups are indexed by secret state bytes. The simulator's
//! *timing* of AES comes from its latency parameters (Table I: 10 ns /
//! 14 ns), not from this code; the functional memory model and
//! `clme-mem` encrypt real bytes with it.

use crate::hw;
use crate::reference::{self, RoundKeys};

pub use crate::reference::{inv_sbox, sbox};

/// An AES cipher instance with a fully expanded key schedule.
///
/// Supports the two key sizes the paper discusses: AES-128 (10 rounds,
/// mainstream today) and AES-256 (14 rounds, post-quantum-motivated).
///
/// # Examples
///
/// ```
/// use clme_crypto::aes::Aes;
///
/// let aes = Aes::new_256([0x42; 32]);
/// let pt = *b"exactly 16 bytes";
/// assert_eq!(aes.decrypt_block(aes.encrypt_block(pt)), pt);
/// ```
#[derive(Clone)]
pub struct Aes {
    /// Encryption round keys, one per round plus the initial key.
    enc: RoundKeys,
    /// The equivalent inverse cipher's round keys, for `aesdec`.
    dec: RoundKeys,
    rounds: usize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("Aes").field("rounds", &self.rounds).finish()
    }
}

impl Aes {
    /// Creates an AES-128 instance (10 rounds).
    pub fn new_128(key: [u8; 16]) -> Aes {
        Aes::expand(&key, 10)
    }

    /// Creates an AES-256 instance (14 rounds).
    pub fn new_256(key: [u8; 32]) -> Aes {
        Aes::expand(&key, 14)
    }

    /// Number of rounds (10 or 14).
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    fn expand(key: &[u8], rounds: usize) -> Aes {
        let enc = reference::expand_key(key, rounds);
        let dec = reference::equivalent_inverse_keys(&enc, rounds);
        Aes { enc, dec, rounds }
    }

    /// Encrypts one 16-byte block.
    #[inline]
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        self.encrypt_blocks([block])[0]
    }

    /// Decrypts one 16-byte block.
    #[inline]
    pub fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        self.decrypt_blocks([block])[0]
    }

    /// Encrypts `N` independent blocks. With AES-NI their rounds run
    /// interleaved, so four blocks cost little more than one.
    #[inline]
    pub fn encrypt_blocks<const N: usize>(&self, blocks: [[u8; 16]; N]) -> [[u8; 16]; N] {
        match hw::get() {
            Some(hw) => hw.aes_encrypt(&self.enc, self.rounds, blocks),
            None => blocks.map(|b| reference::encrypt(&self.enc, self.rounds, b)),
        }
    }

    /// Decrypts `N` independent blocks, interleaved like
    /// [`Aes::encrypt_blocks`].
    #[inline]
    pub fn decrypt_blocks<const N: usize>(&self, blocks: [[u8; 16]; N]) -> [[u8; 16]; N] {
        match hw::get() {
            Some(hw) => hw.aes_decrypt(&self.dec, self.rounds, blocks),
            None => blocks.map(|b| reference::decrypt(&self.enc, self.rounds, b)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex16(s: &str) -> [u8; 16] {
        hex(s).try_into().unwrap()
    }

    #[test]
    fn sbox_known_entries() {
        let s = sbox();
        assert_eq!(s[0x00], 0x63);
        assert_eq!(s[0x01], 0x7C);
        assert_eq!(s[0x53], 0xED);
        assert_eq!(s[0xFF], 0x16);
    }

    #[test]
    fn sbox_is_a_permutation_with_no_fixed_points() {
        let s = sbox();
        let mut seen = [false; 256];
        for (x, &v) in s.iter().enumerate() {
            assert!(!seen[v as usize], "duplicate S-box output");
            seen[v as usize] = true;
            assert_ne!(x as u8, v, "AES S-box has no fixed points");
            assert_ne!(x as u8, !v, "AES S-box has no anti-fixed points");
        }
    }

    #[test]
    fn inv_sbox_inverts() {
        let (s, inv) = (sbox(), inv_sbox());
        for x in 0..=255usize {
            assert_eq!(inv[s[x] as usize] as usize, x);
        }
    }

    /// Checks one known answer through the dispatched cipher (AES-NI
    /// where the CPU has it), its multi-block form and the reference.
    fn known_answer(dispatched: Aes, reference: reference::Aes, pt: [u8; 16], ct: [u8; 16]) {
        assert_eq!(dispatched.encrypt_block(pt), ct);
        assert_eq!(dispatched.decrypt_block(ct), pt);
        let ct2 = dispatched.encrypt_block(ct);
        assert_eq!(dispatched.encrypt_blocks([pt, ct, pt]), [ct, ct2, ct]);
        assert_eq!(dispatched.decrypt_blocks([ct; 4]), [pt; 4]);
        assert_eq!(reference.encrypt_block(pt), ct);
        assert_eq!(reference.decrypt_block(ct), pt);
    }

    #[test]
    fn fips197_appendix_b_aes128() {
        let key = hex16("2b7e151628aed2a6abf7158809cf4f3c");
        known_answer(
            Aes::new_128(key),
            reference::Aes::new_128(key),
            hex16("3243f6a8885a308d313198a2e0370734"),
            hex16("3925841d02dc09fbdc118597196a0b32"),
        );
    }

    #[test]
    fn fips197_appendix_c1_aes128() {
        let key = hex16("000102030405060708090a0b0c0d0e0f");
        known_answer(
            Aes::new_128(key),
            reference::Aes::new_128(key),
            hex16("00112233445566778899aabbccddeeff"),
            hex16("69c4e0d86a7b0430d8cdb78070b4c55a"),
        );
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key: [u8; 32] = hex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
            .try_into()
            .unwrap();
        known_answer(
            Aes::new_256(key),
            reference::Aes::new_256(key),
            hex16("00112233445566778899aabbccddeeff"),
            hex16("8ea2b7ca516745bfeafc49904b496089"),
        );
    }

    #[test]
    fn round_counts() {
        assert_eq!(Aes::new_128([0; 16]).rounds(), 10);
        assert_eq!(Aes::new_256([0; 32]).rounds(), 14);
    }

    #[test]
    fn round_trip_many_random_blocks() {
        use clme_types::rng::Xoshiro256;
        let mut rng = Xoshiro256::seed_from(11);
        let mut key = [0u8; 16];
        rng.fill_bytes(&mut key);
        let aes = Aes::new_128(key);
        for _ in 0..64 {
            let mut pt = [0u8; 16];
            rng.fill_bytes(&mut pt);
            assert_eq!(aes.decrypt_block(aes.encrypt_block(pt)), pt);
        }
    }

    #[test]
    fn avalanche_on_plaintext() {
        let aes = Aes::new_128([7; 16]);
        let base = aes.encrypt_block([0; 16]);
        let mut flipped_in = [0u8; 16];
        flipped_in[0] = 1;
        let flipped = aes.encrypt_block(flipped_in);
        let differing: u32 = base
            .iter()
            .zip(flipped.iter())
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert!((40..=90).contains(&differing), "weak diffusion: {differing}");
    }

    #[test]
    fn debug_hides_key_material() {
        let aes = Aes::new_128([0x41; 16]);
        let repr = format!("{aes:?}");
        assert!(repr.contains("rounds"));
        assert!(!repr.contains("41, 41"), "round keys must not leak: {repr}");
    }

    #[test]
    fn shift_rows_inverse_property() {
        let mut state: [u8; 16] = core::array::from_fn(|i| i as u8);
        let orig = state;
        reference::shift_rows(&mut state);
        assert_ne!(state, orig);
        reference::inv_shift_rows(&mut state);
        assert_eq!(state, orig);
    }

    #[test]
    fn mix_columns_inverse_property() {
        let mut state: [u8; 16] = core::array::from_fn(|i| (i * 17) as u8);
        let orig = state;
        reference::mix_columns(&mut state);
        reference::inv_mix_columns(&mut state);
        assert_eq!(state, orig);
    }
}
