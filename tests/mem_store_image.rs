//! Store-image stability: a fixed master key and a seeded write stream
//! (with a mid-stream rekey) must leave exactly the same stored words
//! on every build. The digest below was computed by the byte-wise AES,
//! bit-serial GF(2¹²⁸) and loop Keccak implementations that are now
//! `clme_crypto::reference`; matching it proves that stores written by
//! those builds still attach and verify under the dispatched kernels.

use clme::mem::{Block, EncryptionLayer, LayerOptions, MemoryAdt, StoreBackend, VecBackend};
use clme::types::rng::SplitMix64;
use std::collections::BTreeMap;

const MASTER: [u8; 32] = [0x5E; 32];
const REKEYED: [u8; 32] = [0xA7; 32];
const BLOCKS: u64 = 300; // 5 pages, partial last page
const SEED: u64 = 0x5709_E1A6;

/// FNV-1a over every stored word, then the root: independent of the
/// crypto under test, so a kernel bug cannot cancel out of the digest.
const PINNED_DIGEST: u64 = 0xEF37_C996_FC88_F5E2;

fn options() -> LayerOptions {
    LayerOptions {
        // Low enough that hot blocks go counterless within the stream.
        counter_saturation: 5,
        ..LayerOptions::default()
    }
}

fn write_batches(
    layer: &EncryptionLayer<VecBackend>,
    rng: &mut SplitMix64,
    model: &mut BTreeMap<u64, Block>,
    batches: usize,
) {
    for _ in 0..batches {
        let len = 1 + rng.below(16) as usize;
        let writes: Vec<(u64, Block)> = (0..len)
            .map(|_| {
                // Half the writes land on the first 24 blocks so their
                // counters pass the saturation point.
                let addr = if rng.below(2) == 0 {
                    rng.below(24)
                } else {
                    rng.below(BLOCKS)
                };
                let mut block = [0u8; 64];
                for chunk in block.chunks_mut(8) {
                    chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
                }
                (addr, block)
            })
            .collect();
        layer.batch_write(&writes).expect("in-bounds write");
        model.extend(writes);
    }
}

fn digest(backend: &VecBackend, root: u64) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    for index in 0..backend.words() {
        eat(&backend.read_word(index).expect("in-bounds word"));
    }
    eat(&root.to_le_bytes());
    h
}

#[test]
fn store_image_digest_is_pinned() {
    let layer =
        EncryptionLayer::with_options(VecBackend::for_blocks(BLOCKS), BLOCKS, MASTER, options())
            .expect("geometry fits");
    let mut rng = SplitMix64::new(SEED);
    let mut model = BTreeMap::new();
    write_batches(&layer, &mut rng, &mut model, 120);
    layer.rekey(REKEYED).expect("rekey succeeds");
    write_batches(&layer, &mut rng, &mut model, 120);

    let counterless = (0..BLOCKS)
        .filter(|&addr| layer.is_counterless(addr).expect("verified"))
        .count();
    assert!(counterless > 0, "the stream must saturate some counters");
    assert!(
        counterless < BLOCKS as usize / 2,
        "most blocks must stay in counter mode"
    );

    let root = layer.root();
    let backend = layer.into_backend();
    let got = digest(&backend, root);
    assert_eq!(got, PINNED_DIGEST, "store image drifted: {got:#018x}");

    // The pinned image attaches under the live key and serves the model.
    let layer = EncryptionLayer::attach_with_options(backend, BLOCKS, REKEYED, root, options())
        .expect("geometry fits");
    let addrs: Vec<u64> = (0..BLOCKS).collect();
    let blocks = layer.batch_read(&addrs).expect("attached store verifies");
    for (addr, block) in addrs.iter().zip(&blocks) {
        assert_eq!(
            block,
            &model.get(addr).copied().unwrap_or([0; 64]),
            "block {addr}"
        );
    }
}
