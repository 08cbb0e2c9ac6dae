//! Randomised tests over the cryptographic substrate: round trips,
//! tamper detection, and codec inversions under seeded-random inputs.
//! Each test sweeps a fixed number of deterministic cases so failures
//! reproduce exactly (the seed is in the assertion message).
//!
//! The `differential_*` tests check the dispatched primitives (AES-NI
//! and PCLMULQDQ where the CPU has them) against `clme_crypto::reference`
//! on [`DIFF_CASES`] random inputs each, and the modes built on them
//! against the same constructions rebuilt from the reference.

use clme::crypto::gf::Gf128;
use clme::crypto::keys::KeyMaterial;
use clme::crypto::mac::{counterless_mac, CounterModeMac, DATA_LANES};
use clme::crypto::otp::{trunc64, xor64, OtpCipher};
use clme::crypto::sha3::{sha3_256, sha3_tag64};
use clme::crypto::{reference, Aes, Xts};
use clme::ecc::codec::{decode_meta, encode};
use clme::ecc::encmeta::{EncMeta, MetaWord, COUNTERLESS_FLAG};
use clme::types::rng::Xoshiro256;

const CASES: u64 = 48;

/// Random cases per differential test.
const DIFF_CASES: u64 = 10_000;

fn bytes<const N: usize>(rng: &mut Xoshiro256) -> [u8; N] {
    let mut out = [0u8; N];
    rng.fill_bytes(&mut out);
    out
}

#[test]
fn aes128_round_trips() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xAE5_128 + case);
        let aes = Aes::new_128(bytes::<16>(&mut rng));
        let pt = bytes::<16>(&mut rng);
        assert_eq!(aes.decrypt_block(aes.encrypt_block(pt)), pt, "case {case}");
    }
}

#[test]
fn aes256_round_trips() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xAE5_256 + case);
        let aes = Aes::new_256(bytes::<32>(&mut rng));
        let pt = bytes::<16>(&mut rng);
        assert_eq!(aes.decrypt_block(aes.encrypt_block(pt)), pt, "case {case}");
    }
}

#[test]
fn xts_round_trips_and_randomises() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x7175 + case);
        let keys = KeyMaterial::from_master(bytes::<32>(&mut rng));
        let addr = rng.next_u64();
        let pt = bytes::<64>(&mut rng);
        let ct = keys.xts().encrypt_block64(addr, &pt);
        assert_eq!(keys.xts().decrypt_block64(addr, &ct), pt, "case {case}");
        // Ciphertext must differ from plaintext (with overwhelming prob.).
        assert_ne!(ct, pt, "case {case}");
    }
}

#[test]
fn otp_round_trips() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x07B0 + case);
        let keys = KeyMaterial::from_master(bytes::<32>(&mut rng));
        let addr = rng.next_u64();
        let counter = rng.next_u64();
        let pt = bytes::<64>(&mut rng);
        let ct = keys.otp().encrypt_block64(addr, counter, &pt);
        assert_eq!(
            keys.otp().decrypt_block64(addr, counter, &ct),
            pt,
            "case {case}"
        );
    }
}

#[test]
fn distinct_counters_give_distinct_pads() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xD15C + case);
        let keys = KeyMaterial::from_master(bytes::<32>(&mut rng));
        let addr = rng.next_u64();
        let c1 = rng.next_u64();
        let c2 = rng.next_u64();
        if c1 == c2 {
            continue;
        }
        assert_ne!(
            keys.otp().pad_block64(addr, c1),
            keys.otp().pad_block64(addr, c2),
            "case {case}"
        );
    }
}

#[test]
fn counterless_mac_detects_any_tamper() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x3AC0 + case);
        let key = bytes::<32>(&mut rng);
        let addr = rng.next_u64();
        let ct = bytes::<64>(&mut rng);
        let byte = rng.below(64) as usize;
        let flip = 1 + rng.below(255) as u8;
        let tag = counterless_mac(&key, addr, &ct, COUNTERLESS_FLAG);
        let mut tampered = ct;
        tampered[byte] ^= flip;
        assert_ne!(
            counterless_mac(&key, addr, &tampered, COUNTERLESS_FLAG),
            tag,
            "case {case}"
        );
    }
}

#[test]
fn counter_mode_mac_detects_any_tamper() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xC7AC + case);
        let keys = KeyMaterial::from_master(bytes::<32>(&mut rng));
        let otp_trunc = rng.next_u64();
        let pt = bytes::<64>(&mut rng);
        let counter = rng.next_u64() as u32;
        let byte = rng.below(64) as usize;
        let flip = 1 + rng.below(255) as u8;
        let tag = keys.counter_mode_mac().tag(otp_trunc, &pt, counter);
        let mut tampered = pt;
        tampered[byte] ^= flip;
        assert_ne!(
            keys.counter_mode_mac().tag(otp_trunc, &tampered, counter),
            tag,
            "case {case}"
        );
    }
}

#[test]
fn parity_codec_inverts_for_any_meta() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0xC0DE + case);
        let ct = bytes::<64>(&mut rng);
        let mac = rng.next_u64();
        let raw_meta = rng.next_u64() as u32;
        let aux = rng.next_u64() as u32;
        let meta = MetaWord::new(EncMeta::from_raw(raw_meta), aux);
        let block = encode(&ct, mac, meta);
        assert_eq!(decode_meta(&block), meta, "case {case}");
        assert_eq!(block.data(), ct, "case {case}");
    }
}

#[test]
fn xor64_is_involutive() {
    for case in 0..CASES {
        let mut rng = Xoshiro256::seed_from(0x1404 + case);
        let a = bytes::<64>(&mut rng);
        let b = bytes::<64>(&mut rng);
        assert_eq!(xor64(&xor64(&a, &b), &b), a, "case {case}");
    }
}

#[test]
fn differential_aes128_matches_reference() {
    let mut rng = Xoshiro256::seed_from(0xD1F128);
    for case in 0..DIFF_CASES {
        let key = bytes::<16>(&mut rng);
        let (fast, oracle) = (Aes::new_128(key), reference::Aes::new_128(key));
        let blocks: [[u8; 16]; 4] = std::array::from_fn(|_| bytes::<16>(&mut rng));
        let ct = oracle.encrypt_block(blocks[0]);
        assert_eq!(fast.encrypt_block(blocks[0]), ct, "case {case}");
        assert_eq!(fast.decrypt_block(ct), blocks[0], "case {case}");
        assert_eq!(
            fast.decrypt_block(blocks[1]),
            oracle.decrypt_block(blocks[1]),
            "case {case}"
        );
        assert_eq!(
            fast.encrypt_blocks(blocks),
            blocks.map(|b| oracle.encrypt_block(b)),
            "case {case}"
        );
        assert_eq!(
            fast.decrypt_blocks(blocks),
            blocks.map(|b| oracle.decrypt_block(b)),
            "case {case}"
        );
    }
}

#[test]
fn differential_aes256_matches_reference() {
    let mut rng = Xoshiro256::seed_from(0xD1F256);
    for case in 0..DIFF_CASES {
        let key = bytes::<32>(&mut rng);
        let (fast, oracle) = (Aes::new_256(key), reference::Aes::new_256(key));
        let blocks: [[u8; 16]; 4] = std::array::from_fn(|_| bytes::<16>(&mut rng));
        let ct = oracle.encrypt_block(blocks[0]);
        assert_eq!(fast.encrypt_block(blocks[0]), ct, "case {case}");
        assert_eq!(fast.decrypt_block(ct), blocks[0], "case {case}");
        assert_eq!(
            fast.decrypt_block(blocks[1]),
            oracle.decrypt_block(blocks[1]),
            "case {case}"
        );
        assert_eq!(
            fast.encrypt_blocks(blocks),
            blocks.map(|b| oracle.encrypt_block(b)),
            "case {case}"
        );
        assert_eq!(
            fast.decrypt_blocks(blocks),
            blocks.map(|b| oracle.decrypt_block(b)),
            "case {case}"
        );
    }
}

/// A random GF(2¹²⁸) operand; one in four is an edge value (0, 1, all
/// ones, the top bit alone, or a single word).
fn gf_operand(rng: &mut Xoshiro256) -> u128 {
    const EDGES: [u128; 6] = [
        0,
        1,
        u128::MAX,
        1 << 127,
        u64::MAX as u128,
        (u64::MAX as u128) << 64,
    ];
    if rng.below(4) == 0 {
        EDGES[rng.below(EDGES.len() as u64) as usize]
    } else {
        u128::from_le_bytes(bytes::<16>(rng))
    }
}

#[test]
fn differential_gf128_mul_matches_reference() {
    let edges = [0u128, 1, u128::MAX, 1 << 127];
    for &a in &edges {
        for &b in &edges {
            assert_eq!(
                Gf128(a).mul(Gf128(b)).0,
                reference::gf128_mul(a, b),
                "{a:#x} * {b:#x}"
            );
        }
    }
    let mut rng = Xoshiro256::seed_from(0xD1F6F);
    for case in 0..DIFF_CASES {
        let (a, b) = (gf_operand(&mut rng), gf_operand(&mut rng));
        assert_eq!(
            Gf128(a).mul(Gf128(b)).0,
            reference::gf128_mul(a, b),
            "case {case}"
        );
        // The dot product sums unreduced products and reduces once.
        let n = rng.below(10) as usize;
        let xs: Vec<Gf128> = (0..n).map(|_| Gf128(gf_operand(&mut rng))).collect();
        let ys: Vec<Gf128> = (0..n).map(|_| Gf128(gf_operand(&mut rng))).collect();
        let want = xs
            .iter()
            .zip(&ys)
            .fold(0, |acc, (x, y)| acc ^ reference::gf128_mul(x.0, y.0));
        assert_eq!(Gf128::dot(&xs, &ys).0, want, "case {case}");
    }
}

#[test]
fn sha3_tag64_matches_concatenated_digest() {
    // Every domain/part boundary of every length 0..=400 (crossing the
    // 136-byte rate twice), with the rest split again at a random point
    // and an empty part in between.
    let mut rng = Xoshiro256::seed_from(0xD1F5A);
    for len in 0..=400usize {
        let mut msg = vec![0u8; len];
        rng.fill_bytes(&mut msg);
        let want = u64::from_le_bytes(sha3_256(&msg)[..8].try_into().unwrap());
        for split in 0..=len {
            let (domain, rest) = msg.split_at(split);
            let (a, b) = rest.split_at(rng.below(rest.len() as u64 + 1) as usize);
            assert_eq!(
                sha3_tag64(domain, &[a, &[], b]),
                want,
                "len {len} split {split}"
            );
        }
    }
}

#[test]
fn differential_otp_matches_reference() {
    let mut rng = Xoshiro256::seed_from(0xD1F07);
    for case in 0..DIFF_CASES {
        let key = bytes::<16>(&mut rng);
        let (otp, oracle) = (OtpCipher::new_128(key), reference::Aes::new_128(key));
        let (addr, counter) = (rng.next_u64(), rng.next_u64());
        // Word j's input: (4·addr + j) then the counter, little-endian.
        let mut want = [0u8; 64];
        for (j, chunk) in want.chunks_exact_mut(16).enumerate() {
            let mut input = [0u8; 16];
            input[..8].copy_from_slice(&addr.wrapping_mul(4).wrapping_add(j as u64).to_le_bytes());
            input[8..].copy_from_slice(&counter.to_le_bytes());
            chunk.copy_from_slice(&oracle.encrypt_block(input));
        }
        assert_eq!(otp.pad_block64(addr, counter), want, "case {case}");
        let pt = bytes::<64>(&mut rng);
        assert_eq!(
            otp.encrypt_block64(addr, counter, &pt),
            xor64(&pt, &want),
            "case {case}"
        );
        assert_eq!(
            trunc64(&otp.pad_block64(addr, counter)),
            u64::from_le_bytes(want[..8].try_into().unwrap()),
            "case {case}"
        );
    }
}

#[test]
fn differential_xts_matches_reference() {
    let mut rng = Xoshiro256::seed_from(0xD1F75);
    for case in 0..DIFF_CASES {
        let (k1, k2) = (bytes::<16>(&mut rng), bytes::<16>(&mut rng));
        let (xts, data, tweak) = (
            Xts::new_128(k1, k2),
            reference::Aes::new_128(k1),
            reference::Aes::new_128(k2),
        );
        let addr = rng.next_u64();
        let pt = bytes::<64>(&mut rng);
        let mut tweak_in = [0u8; 16];
        tweak_in[..8].copy_from_slice(&addr.to_le_bytes());
        let mut t = Gf128::from_bytes(tweak.encrypt_block(tweak_in));
        let mut want = [0u8; 64];
        for (out, word) in want.chunks_exact_mut(16).zip(pt.chunks_exact(16)) {
            let tb = t.to_bytes();
            let x: [u8; 16] = std::array::from_fn(|i| word[i] ^ tb[i]);
            let y = data.encrypt_block(x);
            for i in 0..16 {
                out[i] = y[i] ^ tb[i];
            }
            t = t.mul_alpha();
        }
        assert_eq!(xts.encrypt_block64(addr, &pt), want, "case {case}");
        assert_eq!(xts.decrypt_block64(addr, &want), pt, "case {case}");
    }
}

#[test]
fn differential_cm_mac_matches_reference() {
    let mut rng = Xoshiro256::seed_from(0xD1FAC);
    for case in 0..DIFF_CASES / 10 {
        let seed = bytes::<32>(&mut rng);
        let mac = CounterModeMac::from_seed(&seed);
        // The lane keys as `from_seed` documents them.
        let lane_keys: [u128; DATA_LANES + 1] = std::array::from_fn(|i| {
            let digest = sha3_256(&[b"clme:mac-lane:".as_slice(), &[i as u8], &seed].concat());
            u128::from_le_bytes(digest[..16].try_into().unwrap())
        });
        for _ in 0..10 {
            let (otp, meta) = (rng.next_u64(), rng.next_u64() as u32);
            let pt = bytes::<64>(&mut rng);
            let mut dot = reference::gf128_mul(meta as u128, lane_keys[DATA_LANES]);
            for (lane, key) in pt.chunks_exact(8).zip(&lane_keys) {
                let value = u64::from_le_bytes(lane.try_into().unwrap());
                dot ^= reference::gf128_mul(value as u128, *key);
            }
            let want = otp ^ (dot as u64) ^ ((dot >> 64) as u64);
            assert_eq!(mac.tag(otp, &pt, meta), want, "case {case}");
        }
    }
}
