//! The straightforward implementations: byte-wise AES and bit-serial
//! GF(2¹²⁸) multiplication.
//!
//! They are written to be read against FIPS 197 and IEEE 1619,
//! not to be fast, and they serve two purposes:
//!
//! * the fallback the dispatched primitives ([`crate::aes::Aes`],
//!   [`crate::gf::Gf128::mul`]) use on CPUs without AES-NI and PCLMULQDQ
//!   (see [`crate::backend`]);
//! * the oracle every fast path is tested against, differentially, in
//!   the crate's property tests.
//!
//! The AES and GF(2¹²⁸) code is **not** constant-time: the S-box is a
//! table indexed by secret state bytes, and [`gf128_mul`] branches on
//! secret bits.

use crate::gf::{gf8_inv, gf8_mul, xtime};
use std::sync::OnceLock;

/// Number of 32-bit words in an AES state/block.
const NB: usize = 4;

/// Round-key slots: AES-256 has 14 rounds, so 15 round keys; AES-128
/// uses the first 11.
pub const MAX_ROUND_KEYS: usize = 15;

/// An expanded AES key schedule, one 16-byte key per round plus the
/// initial key.
pub type RoundKeys = [[u8; 16]; MAX_ROUND_KEYS];

static SBOX: OnceLock<[u8; 256]> = OnceLock::new();
static INV_SBOX: OnceLock<[u8; 256]> = OnceLock::new();

/// The AES S-box, generated as `affine(inv(x))` per FIPS 197 §5.1.1.
pub fn sbox() -> &'static [u8; 256] {
    SBOX.get_or_init(|| {
        let mut table = [0u8; 256];
        for (x, slot) in table.iter_mut().enumerate() {
            *slot = affine(gf8_inv(x as u8));
        }
        table
    })
}

/// The inverse AES S-box (the forward table inverted).
pub fn inv_sbox() -> &'static [u8; 256] {
    INV_SBOX.get_or_init(|| {
        let fwd = sbox();
        let mut table = [0u8; 256];
        for (x, &s) in fwd.iter().enumerate() {
            table[s as usize] = x as u8;
        }
        table
    })
}

/// FIPS 197 affine transformation: `b ⊕ rotl(b,1) ⊕ rotl(b,2) ⊕ rotl(b,3)
/// ⊕ rotl(b,4) ⊕ 0x63`.
fn affine(b: u8) -> u8 {
    b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63
}

/// The byte-wise AES cipher: the FIPS 197 round functions applied to a
/// 16-byte state, one S-box lookup per byte.
///
/// # Examples
///
/// ```
/// use clme_crypto::{reference, Aes};
///
/// let oracle = reference::Aes::new_128([7; 16]);
/// let fast = Aes::new_128([7; 16]);
/// assert_eq!(oracle.encrypt_block([1; 16]), fast.encrypt_block([1; 16]));
/// ```
#[derive(Clone)]
pub struct Aes {
    round_keys: RoundKeys,
    rounds: usize,
}

impl std::fmt::Debug for Aes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("reference::Aes")
            .field("rounds", &self.rounds)
            .finish()
    }
}

impl Aes {
    /// Creates an AES-128 instance (10 rounds).
    pub fn new_128(key: [u8; 16]) -> Aes {
        Aes {
            round_keys: expand_key(&key, 10),
            rounds: 10,
        }
    }

    /// Creates an AES-256 instance (14 rounds).
    pub fn new_256(key: [u8; 32]) -> Aes {
        Aes {
            round_keys: expand_key(&key, 14),
            rounds: 14,
        }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        encrypt(&self.round_keys, self.rounds, block)
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        decrypt(&self.round_keys, self.rounds, block)
    }
}

/// The FIPS 197 §5.2 key expansion of a 16- or 32-byte key into
/// `rounds + 1` round keys; the unused tail slots stay zero.
pub(crate) fn expand_key(key: &[u8], rounds: usize) -> RoundKeys {
    let nk = key.len() / 4;
    let total_words = NB * (rounds + 1);
    let mut w = [[0u8; 4]; NB * MAX_ROUND_KEYS];
    for (i, word) in w.iter_mut().take(nk).enumerate() {
        word.copy_from_slice(&key[4 * i..4 * i + 4]);
    }
    let mut rcon: u8 = 1;
    for i in nk..total_words {
        let mut temp = w[i - 1];
        if i % nk == 0 {
            temp = sub_word(rot_word(temp));
            temp[0] ^= rcon;
            rcon = xtime(rcon);
        } else if nk > 6 && i % nk == 4 {
            temp = sub_word(temp);
        }
        let prev = w[i - nk];
        w[i] = [
            prev[0] ^ temp[0],
            prev[1] ^ temp[1],
            prev[2] ^ temp[2],
            prev[3] ^ temp[3],
        ];
    }
    let mut round_keys = [[0u8; 16]; MAX_ROUND_KEYS];
    for (r, rk) in round_keys.iter_mut().take(rounds + 1).enumerate() {
        for c in 0..NB {
            rk[4 * c..4 * c + 4].copy_from_slice(&w[NB * r + c]);
        }
    }
    round_keys
}

/// The round keys of FIPS 197's equivalent inverse cipher (§5.3.5):
/// the encryption keys in reverse order, with InvMixColumns applied to
/// every inner one — the form `aesdec` consumes (what `aesimc` yields).
pub(crate) fn equivalent_inverse_keys(enc: &RoundKeys, rounds: usize) -> RoundKeys {
    let mut dec = [[0u8; 16]; MAX_ROUND_KEYS];
    dec[0] = enc[rounds];
    for r in 1..rounds {
        dec[r] = enc[rounds - r];
        inv_mix_columns(&mut dec[r]);
    }
    dec[rounds] = enc[0];
    dec
}

/// Encrypts one block under an expanded schedule.
pub(crate) fn encrypt(round_keys: &RoundKeys, rounds: usize, block: [u8; 16]) -> [u8; 16] {
    let mut state = block;
    add_round_key(&mut state, &round_keys[0]);
    for rk in &round_keys[1..rounds] {
        sub_bytes(&mut state);
        shift_rows(&mut state);
        mix_columns(&mut state);
        add_round_key(&mut state, rk);
    }
    sub_bytes(&mut state);
    shift_rows(&mut state);
    add_round_key(&mut state, &round_keys[rounds]);
    state
}

/// Decrypts one block under an expanded (encryption) schedule.
pub(crate) fn decrypt(round_keys: &RoundKeys, rounds: usize, block: [u8; 16]) -> [u8; 16] {
    let mut state = block;
    add_round_key(&mut state, &round_keys[rounds]);
    for rk in round_keys[1..rounds].iter().rev() {
        inv_shift_rows(&mut state);
        inv_sub_bytes(&mut state);
        add_round_key(&mut state, rk);
        inv_mix_columns(&mut state);
    }
    inv_shift_rows(&mut state);
    inv_sub_bytes(&mut state);
    add_round_key(&mut state, &round_keys[0]);
    state
}

fn rot_word(w: [u8; 4]) -> [u8; 4] {
    [w[1], w[2], w[3], w[0]]
}

fn sub_word(w: [u8; 4]) -> [u8; 4] {
    let s = sbox();
    [
        s[w[0] as usize],
        s[w[1] as usize],
        s[w[2] as usize],
        s[w[3] as usize],
    ]
}

fn add_round_key(state: &mut [u8; 16], rk: &[u8; 16]) {
    for (s, k) in state.iter_mut().zip(rk.iter()) {
        *s ^= k;
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    let s = sbox();
    for byte in state.iter_mut() {
        *byte = s[*byte as usize];
    }
}

fn inv_sub_bytes(state: &mut [u8; 16]) {
    let s = inv_sbox();
    for byte in state.iter_mut() {
        *byte = s[*byte as usize];
    }
}

/// State layout is FIPS column-major: flat index `4c + r` holds row `r`,
/// column `c`; input byte order maps directly onto this layout.
pub(crate) fn shift_rows(state: &mut [u8; 16]) {
    let old = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * c + r] = old[4 * ((c + r) % 4) + r];
        }
    }
}

pub(crate) fn inv_shift_rows(state: &mut [u8; 16]) {
    let old = *state;
    for r in 1..4 {
        for c in 0..4 {
            state[4 * ((c + r) % 4) + r] = old[4 * c + r];
        }
    }
}

pub(crate) fn mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = xtime(col[0]) ^ (xtime(col[1]) ^ col[1]) ^ col[2] ^ col[3];
        state[4 * c + 1] = col[0] ^ xtime(col[1]) ^ (xtime(col[2]) ^ col[2]) ^ col[3];
        state[4 * c + 2] = col[0] ^ col[1] ^ xtime(col[2]) ^ (xtime(col[3]) ^ col[3]);
        state[4 * c + 3] = (xtime(col[0]) ^ col[0]) ^ col[1] ^ col[2] ^ xtime(col[3]);
    }
}

pub(crate) fn inv_mix_columns(state: &mut [u8; 16]) {
    for c in 0..4 {
        let col = [
            state[4 * c],
            state[4 * c + 1],
            state[4 * c + 2],
            state[4 * c + 3],
        ];
        state[4 * c] = gf8_mul(col[0], 0x0E)
            ^ gf8_mul(col[1], 0x0B)
            ^ gf8_mul(col[2], 0x0D)
            ^ gf8_mul(col[3], 0x09);
        state[4 * c + 1] = gf8_mul(col[0], 0x09)
            ^ gf8_mul(col[1], 0x0E)
            ^ gf8_mul(col[2], 0x0B)
            ^ gf8_mul(col[3], 0x0D);
        state[4 * c + 2] = gf8_mul(col[0], 0x0D)
            ^ gf8_mul(col[1], 0x09)
            ^ gf8_mul(col[2], 0x0E)
            ^ gf8_mul(col[3], 0x0B);
        state[4 * c + 3] = gf8_mul(col[0], 0x0B)
            ^ gf8_mul(col[1], 0x0D)
            ^ gf8_mul(col[2], 0x09)
            ^ gf8_mul(col[3], 0x0E);
    }
}

/// Bit-serial multiplication in GF(2¹²⁸) with the XTS/GCM polynomial
/// `x¹²⁸ + x⁷ + x² + x + 1`, little-endian bit order (bit 0 is the
/// constant term): shift-and-add over `b`, reducing `a` by 0x87 on
/// every overflow.
pub fn gf128_mul(a: u128, b: u128) -> u128 {
    let mut acc: u128 = 0;
    let mut a = a;
    let mut b = b;
    while b != 0 {
        if b & 1 != 0 {
            acc ^= a;
        }
        let carry = a >> 127;
        a <<= 1;
        if carry != 0 {
            a ^= 0x87;
        }
        b >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn debug_hides_key_material() {
        let repr = format!("{:?}", Aes::new_128([0x41; 16]));
        assert!(repr.contains("rounds"));
        assert!(!repr.contains("65"), "round keys must not leak: {repr}");
    }

    #[test]
    fn equivalent_inverse_keys_mirror_the_schedule() {
        let enc = expand_key(&[0x2B; 16], 10);
        let dec = equivalent_inverse_keys(&enc, 10);
        assert_eq!((dec[0], dec[10]), (enc[10], enc[0]));
        let mut inner = dec[3];
        mix_columns(&mut inner);
        assert_eq!(inner, enc[7]);
    }
}
