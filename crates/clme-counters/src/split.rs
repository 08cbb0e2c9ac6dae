//! Split Counters (Section II-C): one 64-byte counter block serves a
//! whole 4 KB page.
//!
//! Each counter block stores a 64-bit **major** counter and 64 × 7-bit
//! **minor** counters, one per data block of the page. A data block's
//! logical write counter is `major · 128 + minor`. Incrementing a minor
//! counter past 127 rolls the page: the major counter increments, every
//! minor resets to zero, and **all other blocks of the page must be
//! re-encrypted** with their new counters (their old pads would otherwise
//! be reused). The paper's Counter-light encodes the *full* counter value
//! (major + minor combined) into the data block's ECC.

/// Data blocks covered by one counter block (a 4 KB page of 64-byte
/// blocks).
pub const BLOCKS_PER_COUNTER_BLOCK: usize = 64;

/// Maximum minor-counter value (7 bits).
pub const MINOR_MAX: u8 = 127;

/// The result of incrementing a block's counter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IncrementOutcome {
    /// The block's new full counter value.
    pub new_counter: u64,
    /// When the minor counter overflowed: the indices and *new* full
    /// counter of every co-resident block that must be re-encrypted.
    pub page_reencryption: Option<Vec<(usize, u64)>>,
}

/// A split-counter block covering one 4 KB page.
///
/// # Examples
///
/// ```
/// use clme_counters::split::CounterBlock;
///
/// let mut cb = CounterBlock::new();
/// assert_eq!(cb.counter(0), 0);
/// cb.increment(0);
/// assert_eq!(cb.counter(0), 1);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterBlock {
    major: u64,
    minors: [u8; BLOCKS_PER_COUNTER_BLOCK],
}

impl Default for CounterBlock {
    fn default() -> CounterBlock {
        CounterBlock::new()
    }
}

impl CounterBlock {
    /// A fresh counter block: major 0, all minors 0.
    pub fn new() -> CounterBlock {
        CounterBlock {
            major: 0,
            minors: [0; BLOCKS_PER_COUNTER_BLOCK],
        }
    }

    /// The current full counter of block `slot` within the page.
    ///
    /// # Panics
    ///
    /// Panics if `slot ≥ 64`.
    pub fn counter(&self, slot: usize) -> u64 {
        self.major * (MINOR_MAX as u64 + 1) + self.minors[slot] as u64
    }

    /// The major counter.
    pub fn major(&self) -> u64 {
        self.major
    }

    /// Increments block `slot`'s counter for a writeback.
    ///
    /// On minor overflow the page rolls: the outcome lists every *other*
    /// block's new counter so the caller can re-encrypt them (the written
    /// block itself uses `new_counter`).
    ///
    /// # Panics
    ///
    /// Panics if `slot ≥ 64`.
    pub fn increment(&mut self, slot: usize) -> IncrementOutcome {
        if self.minors[slot] < MINOR_MAX {
            self.minors[slot] += 1;
            IncrementOutcome {
                new_counter: self.counter(slot),
                page_reencryption: None,
            }
        } else {
            // Minor overflow: roll the major, reset all minors. New full
            // counters ((major+1)·128) exceed every old one (major·128 +
            // ≤127), preserving nonce uniqueness.
            self.major += 1;
            self.minors = [0; BLOCKS_PER_COUNTER_BLOCK];
            let others = (0..BLOCKS_PER_COUNTER_BLOCK)
                .filter(|&i| i != slot)
                .map(|i| (i, self.counter(i)))
                .collect();
            IncrementOutcome {
                new_counter: self.counter(slot),
                page_reencryption: Some(others),
            }
        }
    }

    /// Serialises into a 64-byte block image (8-byte major + 56 bytes of
    /// packed 7-bit minors), demonstrating the storage claim that one
    /// counter block fits a 64-byte line. Minor `i` occupies bits
    /// `7i..7i + 7` of the packed little-endian bit string; eight minors
    /// fill exactly 7 bytes, so each group of eight packs as one word.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&self.major.to_le_bytes());
        for (dst, group) in out[8..]
            .chunks_exact_mut(7)
            .zip(self.minors.chunks_exact(8))
        {
            let packed = pack_minors(u64::from_le_bytes(group.try_into().expect("8 minors")));
            dst.copy_from_slice(&packed.to_le_bytes()[..7]);
        }
        out
    }

    /// Deserialises from a 64-byte block image.
    pub fn from_bytes(bytes: &[u8; 64]) -> CounterBlock {
        let major = u64::from_le_bytes(bytes[..8].try_into().expect("8-byte major"));
        let mut minors = [0u8; BLOCKS_PER_COUNTER_BLOCK];
        for (group, src) in minors.chunks_exact_mut(8).zip(bytes[8..].chunks_exact(7)) {
            let mut word = [0u8; 8];
            word[..7].copy_from_slice(src);
            group.copy_from_slice(&unpack_minors(u64::from_le_bytes(word)).to_le_bytes());
        }
        CounterBlock { major, minors }
    }
}

/// Packs eight 7-bit values, one per byte of `bytes` (little-endian),
/// into the low 56 bits: pairs into 14-bit fields, then 28, then 56.
fn pack_minors(bytes: u64) -> u64 {
    let x = (bytes & 0x007F_007F_007F_007F) | ((bytes & 0x7F00_7F00_7F00_7F00) >> 1);
    let x = (x & 0x0000_3FFF_0000_3FFF) | ((x & 0x3FFF_0000_3FFF_0000) >> 2);
    (x & 0x0000_0000_0FFF_FFFF) | ((x & 0x0FFF_FFFF_0000_0000) >> 4)
}

/// Inverse of [`pack_minors`]: spreads 56 bits back to eight bytes.
fn unpack_minors(packed: u64) -> u64 {
    let x = (packed & 0x0000_0000_0FFF_FFFF) | ((packed & 0x00FF_FFFF_F000_0000) << 4);
    let x = (x & 0x0000_3FFF_0000_3FFF) | ((x & 0x0FFF_C000_0FFF_C000) << 2);
    (x & 0x007F_007F_007F_007F) | ((x & 0x3F80_3F80_3F80_3F80) << 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_counters_are_zero() {
        let cb = CounterBlock::new();
        for slot in 0..BLOCKS_PER_COUNTER_BLOCK {
            assert_eq!(cb.counter(slot), 0);
        }
    }

    #[test]
    fn increments_are_per_slot() {
        let mut cb = CounterBlock::new();
        cb.increment(3);
        cb.increment(3);
        cb.increment(4);
        assert_eq!(cb.counter(3), 2);
        assert_eq!(cb.counter(4), 1);
        assert_eq!(cb.counter(5), 0);
    }

    #[test]
    fn counters_are_strictly_monotonic() {
        let mut cb = CounterBlock::new();
        let mut last = cb.counter(0);
        for _ in 0..300 {
            let outcome = cb.increment(0);
            assert!(outcome.new_counter > last, "nonce reuse: {last}");
            last = outcome.new_counter;
        }
    }

    #[test]
    fn minor_overflow_rolls_page() {
        let mut cb = CounterBlock::new();
        for _ in 0..MINOR_MAX {
            assert!(cb.increment(0).page_reencryption.is_none());
        }
        // Others have some writes too.
        cb.increment(1);
        let outcome = cb.increment(0);
        let reenc = outcome.page_reencryption.expect("overflow must roll page");
        assert_eq!(outcome.new_counter, 128);
        assert_eq!(reenc.len(), BLOCKS_PER_COUNTER_BLOCK - 1);
        // Every co-resident block's new counter exceeds its old one.
        for &(slot, new_counter) in &reenc {
            assert_ne!(slot, 0);
            assert_eq!(new_counter, 128);
        }
        assert_eq!(cb.counter(1), 128);
        assert_eq!(cb.major(), 1);
    }

    #[test]
    fn overflow_preserves_uniqueness_across_page() {
        // Nonces must never repeat for any slot across an overflow.
        let mut cb = CounterBlock::new();
        let mut seen = std::collections::HashSet::new();
        seen.insert(cb.counter(7));
        for _ in 0..400 {
            let out = cb.increment(7);
            assert!(seen.insert(out.new_counter), "slot 7 nonce reuse");
        }
    }

    #[test]
    fn byte_round_trip() {
        let mut cb = CounterBlock::new();
        for i in 0..BLOCKS_PER_COUNTER_BLOCK {
            for _ in 0..(i % 5) {
                cb.increment(i);
            }
        }
        cb.increment(0);
        let bytes = cb.to_bytes();
        assert_eq!(CounterBlock::from_bytes(&bytes), cb);
    }

    #[test]
    fn serialised_form_is_one_block() {
        // The storage claim: 8B major + 64×7b minors = 64B exactly.
        assert_eq!(8 + (BLOCKS_PER_COUNTER_BLOCK * 7).div_ceil(8), 64);
    }

    #[test]
    #[should_panic]
    fn out_of_range_slot_panics() {
        let cb = CounterBlock::new();
        let _ = cb.counter(64);
    }
}

#[cfg(test)]
mod split_properties {
    use super::*;
    use clme_types::rng::Xoshiro256;

    /// The bit-at-a-time image: minor `i`'s bit `k` at bit `7i + k`
    /// after the major. The oracle for the word-packed codec.
    fn to_bytes_bitwise(cb: &CounterBlock) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[..8].copy_from_slice(&cb.major.to_le_bytes());
        for (i, &minor) in cb.minors.iter().enumerate() {
            for k in 0..7 {
                if minor >> k & 1 == 1 {
                    out[8 + (7 * i + k) / 8] |= 1 << ((7 * i + k) % 8);
                }
            }
        }
        out
    }

    fn from_bytes_bitwise(bytes: &[u8; 64]) -> CounterBlock {
        let mut minors = [0u8; BLOCKS_PER_COUNTER_BLOCK];
        for (i, minor) in minors.iter_mut().enumerate() {
            for k in 0..7 {
                if bytes[8 + (7 * i + k) / 8] >> ((7 * i + k) % 8) & 1 == 1 {
                    *minor |= 1 << k;
                }
            }
        }
        CounterBlock {
            major: u64::from_le_bytes(bytes[..8].try_into().unwrap()),
            minors,
        }
    }

    /// Random majors and minors encode to the same image as the bit
    /// loop, and random images decode to the same block.
    #[test]
    fn packed_image_matches_bitwise_oracle() {
        let mut rng = Xoshiro256::seed_from(0x7B17);
        for case in 0..2000 {
            let mut cb = CounterBlock::new();
            cb.major = rng.next_u64();
            for minor in cb.minors.iter_mut() {
                *minor = rng.below(MINOR_MAX as u64 + 1) as u8;
            }
            let image = cb.to_bytes();
            assert_eq!(image, to_bytes_bitwise(&cb), "case {case}");
            assert_eq!(CounterBlock::from_bytes(&image), cb, "case {case}");

            let mut noise = [0u8; 64];
            rng.fill_bytes(&mut noise);
            assert_eq!(
                CounterBlock::from_bytes(&noise),
                from_bytes_bitwise(&noise),
                "case {case}"
            );
        }
    }

    /// Any interleaving of increments keeps every slot's counter
    /// strictly monotonic (nonce never reused) and the block
    /// serialisable. Randomised over 48 seeded interleavings.
    #[test]
    fn nonces_never_repeat() {
        for case in 0..48u64 {
            let mut rng = Xoshiro256::seed_from(0x5711 + case);
            let len = 1 + rng.below(399) as usize;
            let mut cb = CounterBlock::new();
            let mut last = vec![0u64; BLOCKS_PER_COUNTER_BLOCK];
            for _ in 0..len {
                let slot = rng.below(BLOCKS_PER_COUNTER_BLOCK as u64) as usize;
                let out = cb.increment(slot);
                assert!(out.new_counter > last[slot], "case {case}");
                last[slot] = out.new_counter;
                if let Some(reenc) = out.page_reencryption {
                    for (other, counter) in reenc {
                        assert!(counter >= last[other], "case {case}");
                        last[other] = counter;
                    }
                }
            }
            assert_eq!(CounterBlock::from_bytes(&cb.to_bytes()), cb, "case {case}");
        }
    }
}
