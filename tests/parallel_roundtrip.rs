//! Root-package round-trip through the parallel codec APIs.
//!
//! Tier-1 verification (`cargo test -q` at the repo root) runs only this
//! package's tests, so this file is what guarantees the hardware
//! oracle's batched decoder front end (`BlockCursor::windows_all` +
//! gathered `SegmentLut` probes) is exercised on every tier-1 run — on
//! both dispatch arms — not just by the workspace CI run.

use ecco::bits::{set_window_dispatch, window_dispatch, WindowDispatch};
use ecco::codec::{wire, CompressedTensor, DecodeError};
use ecco::prelude::*;

/// Decodes a compressed tensor block by block through the hardware
/// oracle.
fn hw_decode(ct: &CompressedTensor, meta: &TensorMetadata) -> Result<Vec<f32>, DecodeError> {
    let mut out = Vec::with_capacity(ct.blocks().len() * meta.group_size());
    for b in ct.blocks() {
        out.extend(ecco::hw::decode_block_parallel(b, meta, ct.tensor_scale())?.0);
    }
    Ok(out)
}

#[test]
fn weight_roundtrip_through_parallel_codec_and_batched_decoder() {
    let t = SynthSpec::for_kind(TensorKind::Weight, 16, 512)
        .seeded(4001)
        .generate();
    let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());

    // Parallel compress/decompress round-trips and matches the
    // sequential path bit-for-bit.
    let (ct, stats) = codec.compress_parallel(&t);
    assert!(stats.nmse() < 0.05, "nmse {}", stats.nmse());
    let out = codec.decompress_parallel(&ct);
    assert_eq!((out.rows(), out.cols()), (t.rows(), t.cols()));
    let (ct_seq, _) = codec.compress(&t);
    assert_eq!(ct.blocks(), ct_seq.blocks(), "parallel encode diverged");
    assert_eq!(out.data(), codec.decompress(&ct_seq).data());

    // The hardware model's batched window-extraction front end must
    // reconstruct the identical values — through the host's dispatch
    // tier (SIMD where supported) and through the forced-scalar arm.
    let meta = codec.metadata();
    let host_tier = window_dispatch();
    let hw_batched = hw_decode(&ct, meta).unwrap();
    set_window_dispatch(WindowDispatch::Portable);
    let hw_scalar = hw_decode(&ct, meta);
    set_window_dispatch(host_tier);
    assert_eq!(hw_batched, out.data(), "batched hw decode diverged");
    assert_eq!(
        hw_scalar.unwrap(),
        out.data(),
        "forced-scalar hw decode diverged"
    );
}

#[test]
fn revived_metadata_decodes_through_batched_pipeline() {
    // Tables revived from an ECCM snapshot are the calibrated tables:
    // every field matches, and blocks decode bit-identically through the
    // pooled production decoder and the hardware oracle, and encode
    // bit-identically too.
    let t = SynthSpec::for_kind(TensorKind::KCache, 8, 512)
        .seeded(4002)
        .generate();
    let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());
    let (ct, _) = codec.compress_parallel(&t);
    let out = codec.decompress_parallel(&ct);

    let meta = codec.metadata();
    let revived = wire::decode_metadata(&wire::encode_metadata(meta)).expect("snapshot revives");
    assert_eq!(revived.calibration_scale(), meta.calibration_scale());
    assert_eq!(revived.patterns(), meta.patterns());
    assert_eq!(revived.boundaries(), meta.boundaries());
    assert_eq!(revived.id_hf_bits(), meta.id_hf_bits());
    assert_eq!(revived.group_size(), meta.group_size());
    assert_eq!(revived.pattern_code().codes(), meta.pattern_code().codes());
    for (a, b) in revived
        .books()
        .iter()
        .flatten()
        .zip(meta.books().iter().flatten())
    {
        assert_eq!(a.lengths(), b.lengths());
        assert_eq!(a.codes(), b.codes());
        assert_eq!(a.max_len(), b.max_len());
    }

    let vals = ecco::codec::decode_groups_parallel(ct.blocks(), &revived, ct.tensor_scale())
        .expect("revived metadata decodes");
    assert_eq!(vals, out.data());
    let hw_vals = hw_decode(&ct, &revived).expect("revived metadata decodes on the oracle");
    assert_eq!(hw_vals, out.data());
    let (re_ct, _) = WeightCodec::from_metadata(revived).compress_parallel(&t);
    assert_eq!(
        re_ct.blocks(),
        ct.blocks(),
        "revived tables encode differently"
    );
}
