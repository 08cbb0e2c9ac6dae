//! The primitive ladder: per-call cost of the crypto, codec and counter
//! primitives the `clme-mem` data path is built from, each measured in
//! isolation through its public API with the keys the layer derives.

use crate::stats;
use clme_counters::split::CounterBlock;
use clme_crypto::aes::Aes;
use clme_crypto::keys::KeyMaterial;
use clme_crypto::sha3::sha3_tag64;
use clme_ecc::codec;
use clme_ecc::encmeta::MetaWord;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed repetitions per primitive; the reported cost is their median.
const REPS: usize = 5;

/// Wall time of one repetition.
const REP_TIME: Duration = Duration::from_millis(20);

/// Calls between clock reads inside a repetition.
const STRIDE: u64 = 32;

/// Median ns per call of `f` over [`REPS`] repetitions of [`REP_TIME`].
fn per_call_ns(mut f: impl FnMut(u64)) -> f64 {
    let mut reps = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        let mut calls = 0u64;
        while t0.elapsed() < REP_TIME {
            for _ in 0..STRIDE {
                f(calls);
                calls += 1;
            }
        }
        reps.push(t0.elapsed().as_nanos() as f64 / calls as f64);
    }
    stats::median(&reps)
}

/// Measures every rung; returns `(metric name, ns per call)` pairs.
pub fn measure() -> Vec<(&'static str, f64)> {
    let keys = KeyMaterial::from_master([0x5A; 32]);
    let otp = keys.otp();
    let aes = Aes::new_128([0x11; 16]);
    let block = [0x3Cu8; 64];
    let mut state = [0u8; 16];
    let batch: Vec<(u64, u64)> = (0..64).map(|i| (i, 7)).collect();
    let mut cb = CounterBlock::new();
    cb.increment(3);
    vec![
        (
            "crypto.aes128_block_ns",
            per_call_ns(|_| state = aes.encrypt_block(black_box(state))),
        ),
        (
            "crypto.pad64_ns",
            per_call_ns(|i| {
                black_box(otp.pad_block64(black_box(i), 7));
            }),
        ),
        (
            "crypto.pad_batch64_ns_per_block",
            per_call_ns(|_| {
                black_box(otp.pad_batch64(black_box(&batch)));
            }) / batch.len() as f64,
        ),
        (
            "crypto.cm_mac_tag_ns",
            per_call_ns(|i| {
                black_box(keys.counter_mode_mac().tag(black_box(i), &block, 7));
            }),
        ),
        (
            "crypto.sha3_tag64_ns",
            per_call_ns(|i| {
                black_box(sha3_tag64(b"perfbench", &[&i.to_le_bytes(), &block]));
            }),
        ),
        (
            "crypto.xts64_ns",
            per_call_ns(|i| {
                black_box(keys.xts().encrypt_block64(black_box(i), &block));
            }),
        ),
        (
            "ecc.encode_ns",
            per_call_ns(|i| {
                black_box(codec::encode(black_box(&block), i, MetaWord::counter(7)));
            }),
        ),
        (
            "counters.block_roundtrip_ns",
            per_call_ns(|_| {
                black_box(CounterBlock::from_bytes(&black_box(&cb).to_bytes()));
            }),
        ),
    ]
}

/// Prints the ladder.
pub fn print(ladder: &[(&'static str, f64)]) {
    println!(
        "primitive ladder (median of {REPS} x {} ms):",
        REP_TIME.as_millis()
    );
    for (name, ns) in ladder {
        println!("  {name:<36} {ns:>10.1} ns");
    }
}
