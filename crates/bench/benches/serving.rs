//! Criterion benchmarks for the per-block work a `/predict` cache hit pays
//! before its lookup: parsing the block text, and keying the parsed block.
//!
//! `serving_block_key_64` is the server's structural key
//! (`difftune_serve::backend::block_key`); `serving_block_fingerprint_64` is
//! the text fingerprint of the re-rendered block it replaced.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use difftune_isa::{BasicBlock, BlockGenerator};
use difftune_serve::backend::{block_fingerprint, block_key};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The canonical text of 64 generated blocks of 1–8 instructions.
fn block_texts() -> Vec<String> {
    let generator = BlockGenerator::default();
    let mut rng = StdRng::seed_from_u64(7);
    (0..64)
        .map(|i| generator.generate_with_len(&mut rng, 1 + i % 8).to_string())
        .collect()
}

fn parse_all(texts: &[String]) -> Vec<BasicBlock> {
    texts
        .iter()
        .map(|text| text.parse().expect("generated blocks parse"))
        .collect()
}

fn bench_serving(c: &mut Criterion) {
    let texts = block_texts();
    let blocks = parse_all(&texts);
    c.bench_function("serving_parse_64", |b| {
        b.iter(|| parse_all(black_box(&texts)))
    });
    c.bench_function("serving_block_key_64", |b| {
        b.iter(|| {
            black_box(&blocks)
                .iter()
                .map(block_key)
                .fold(0, u64::wrapping_add)
        })
    });
    c.bench_function("serving_block_fingerprint_64", |b| {
        b.iter(|| {
            black_box(&blocks)
                .iter()
                .map(|block| block_fingerprint(&block.to_string()))
                .fold(0, u64::wrapping_add)
        })
    });
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
