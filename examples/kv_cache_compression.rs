//! KV-cache compression: the online path with the hardware-friendly
//! min/max pattern selector, verified against the parallel-decoder model.
//!
//! Run with `cargo run --release --example kv_cache_compression`.

use ecco::codec::{decode_group, encode_group};
use ecco::hw::decode_block_parallel;
use ecco::prelude::*;
use ecco::tensor::stats::nmse;

fn main() {
    // Key and value caches have very different statistics: keys are
    // heavy-tailed (rotary structure + attention sinks), values milder.
    let k_cache = SynthSpec::for_kind(TensorKind::KCache, 256, 1024)
        .seeded(1)
        .generate();
    let v_cache = SynthSpec::for_kind(TensorKind::VCache, 256, 1024)
        .seeded(2)
        .generate();

    // One codec per cache side; the hardware path caps S at 16 patterns.
    for (name, cache) in [("K-cache", &k_cache), ("V-cache", &v_cache)] {
        let codec = KvCodec::calibrate(&[cache], &EccoConfig::default());
        let (compressed, stats) = codec.compress(cache);
        let restored = codec.decompress(&compressed);
        println!(
            "{name}: 4x into {} blocks | pad {:.2}% clip {:.3}% | NMSE {:.6}",
            compressed.blocks().len(),
            stats.pad_ratio() * 100.0,
            stats.clip_ratio() * 100.0,
            nmse(cache, &restored),
        );
    }

    // The paper's decompressor decodes 64 segments speculatively and
    // chains them by end-of-parse offsets; verify it agrees with the
    // sequential reference on live blocks.
    let codec = KvCodec::calibrate(&[&k_cache], &EccoConfig::default());
    let meta = codec.metadata();
    let scale = TensorMetadata::scale_for(&k_cache);
    let mut checked = 0usize;
    for group in k_cache.groups(128).take(256) {
        let (block, _) = encode_group(group, meta, scale, PatternSelector::MinMax);
        let (seq, _) = decode_group(&block, meta, scale).expect("valid block");
        let (par, trace) = decode_block_parallel(&block, meta, scale).expect("valid block");
        assert_eq!(seq, par, "parallel decoder must match sequential");
        assert_eq!(trace.merge_stages, 6);
        checked += 1;
    }
    println!(
        "parallel decoder: {checked} blocks decoded identically to the sequential \
         reference (64 decoders x 8 sub-decoders, 6-stage concatenation tree)"
    );
}
