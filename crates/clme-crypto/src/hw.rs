//! The AES-NI and PCLMULQDQ kernels, and the crate's only `unsafe` code.
//!
//! A [`Hw`] token exists only once runtime detection has seen both
//! `aes` and `pclmulqdq` on this CPU, so its safe methods may call the
//! `#[target_feature]` kernels. Detection runs once per process. The
//! kernels are constant-time: `aesenc`/`aesdec` and `pclmulqdq` take
//! the same time for every operand, and no branch or address depends on
//! key or data.

#![allow(unsafe_code)]

use crate::gf::Gf128;
use crate::reference::RoundKeys;
use std::sync::OnceLock;

/// Proof that this CPU runs AES-NI and PCLMULQDQ.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Hw(Private);

#[derive(Clone, Copy, Debug)]
enum Private {
    #[cfg(target_arch = "x86_64")]
    Detected,
}

/// The hardware token, when this CPU has the instructions.
#[inline]
pub(crate) fn get() -> Option<Hw> {
    static DETECTED: OnceLock<Option<Hw>> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Option<Hw> {
    (is_x86_feature_detected!("aes") && is_x86_feature_detected!("pclmulqdq"))
        .then_some(Hw(Private::Detected))
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Option<Hw> {
    None
}

// Elsewhere `Private` is empty, so the methods' arguments go unused.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
impl Hw {
    /// Encrypts `N` independent blocks with their AES rounds interleaved,
    /// so the `aesenc` latencies overlap.
    #[inline]
    pub(crate) fn aes_encrypt<const N: usize>(
        self,
        round_keys: &RoundKeys,
        rounds: usize,
        blocks: [[u8; 16]; N],
    ) -> [[u8; 16]; N] {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Hw` is only built by `detect` after the CPU
            // reported AES-NI, the one feature the kernel enables.
            Private::Detected => unsafe { x86::aes_encrypt(round_keys, rounds, blocks) },
        }
    }

    /// Decrypts `N` independent blocks, interleaved; `dec_keys` is the
    /// equivalent-inverse-cipher schedule.
    #[inline]
    pub(crate) fn aes_decrypt<const N: usize>(
        self,
        dec_keys: &RoundKeys,
        rounds: usize,
        blocks: [[u8; 16]; N],
    ) -> [[u8; 16]; N] {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as in `aes_encrypt`; detection saw AES-NI.
            Private::Detected => unsafe { x86::aes_decrypt(dec_keys, rounds, blocks) },
        }
    }

    /// `Σᵢ aᵢ·bᵢ` as unreduced 256-bit carry-less products, returned as
    /// `(low, high)` 128-bit halves.
    #[inline]
    pub(crate) fn clmul_sum(self, a: &[Gf128], b: &[Gf128]) -> (u128, u128) {
        match self.0 {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: a `Hw` is only built after the CPU reported
            // PCLMULQDQ, the one feature the kernel enables.
            Private::Detected => unsafe { x86::clmul_sum(a, b) },
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::gf::Gf128;
    use crate::reference::RoundKeys;
    use std::arch::x86_64::*;

    // SSE2 is part of the x86_64 baseline and implied by both `aes`
    // and `pclmulqdq`, so the kernels call these helpers safely.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn from_u128(v: u128) -> __m128i {
        _mm_set_epi64x((v >> 64) as i64, v as i64)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn to_u128(v: __m128i) -> u128 {
        let lo = _mm_cvtsi128_si64(v) as u64;
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(v, v)) as u64;
        (hi as u128) << 64 | lo as u128
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(bytes: &[u8; 16]) -> __m128i {
        from_u128(u128::from_le_bytes(*bytes))
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn store(v: __m128i) -> [u8; 16] {
        to_u128(v).to_le_bytes()
    }

    #[target_feature(enable = "aes")]
    pub(super) fn aes_encrypt<const N: usize>(
        round_keys: &RoundKeys,
        rounds: usize,
        blocks: [[u8; 16]; N],
    ) -> [[u8; 16]; N] {
        let mut state = [_mm_setzero_si128(); N];
        let first = load(&round_keys[0]);
        for (s, block) in state.iter_mut().zip(&blocks) {
            *s = _mm_xor_si128(load(block), first);
        }
        for rk in &round_keys[1..rounds] {
            let rk = load(rk);
            for s in state.iter_mut() {
                *s = _mm_aesenc_si128(*s, rk);
            }
        }
        let last = load(&round_keys[rounds]);
        let mut out = [[0u8; 16]; N];
        for (o, s) in out.iter_mut().zip(state) {
            *o = store(_mm_aesenclast_si128(s, last));
        }
        out
    }

    #[target_feature(enable = "aes")]
    pub(super) fn aes_decrypt<const N: usize>(
        dec_keys: &RoundKeys,
        rounds: usize,
        blocks: [[u8; 16]; N],
    ) -> [[u8; 16]; N] {
        let mut state = [_mm_setzero_si128(); N];
        let first = load(&dec_keys[0]);
        for (s, block) in state.iter_mut().zip(&blocks) {
            *s = _mm_xor_si128(load(block), first);
        }
        for rk in &dec_keys[1..rounds] {
            let rk = load(rk);
            for s in state.iter_mut() {
                *s = _mm_aesdec_si128(*s, rk);
            }
        }
        let last = load(&dec_keys[rounds]);
        let mut out = [[0u8; 16]; N];
        for (o, s) in out.iter_mut().zip(state) {
            *o = store(_mm_aesdeclast_si128(s, last));
        }
        out
    }

    /// Karatsuba: three 64×64 products per pair (low·low, high·high and
    /// the sum of halves), accumulated separately and recombined once.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn clmul_sum(a: &[Gf128], b: &[Gf128]) -> (u128, u128) {
        let zero = _mm_setzero_si128();
        let (mut lo, mut mid, mut hi) = (zero, zero, zero);
        for (x, y) in a.iter().zip(b) {
            let (x, y) = (from_u128(x.0), from_u128(y.0));
            lo = _mm_xor_si128(lo, _mm_clmulepi64_si128::<0x00>(x, y));
            hi = _mm_xor_si128(hi, _mm_clmulepi64_si128::<0x11>(x, y));
            // Low lane of each: the xor of its two halves.
            let xs = _mm_xor_si128(x, _mm_unpackhi_epi64(x, x));
            let ys = _mm_xor_si128(y, _mm_unpackhi_epi64(y, y));
            mid = _mm_xor_si128(mid, _mm_clmulepi64_si128::<0x00>(xs, ys));
        }
        let (lo, hi) = (to_u128(lo), to_u128(hi));
        let mid = to_u128(mid) ^ lo ^ hi;
        (lo ^ (mid << 64), hi ^ (mid >> 64))
    }
}
