//! The offline weight-compression path (4×, MSE-optimal pattern choice).

use ecco_bits::Block64;
use ecco_numerics::Po2Scale;
use ecco_tensor::Tensor;

use crate::block::{
    decode_group, decode_group_into, encode_group_scratch, encode_group_weighted_scratch,
};
use crate::metadata::{PatternSelector, TensorMetadata};
use crate::metrics::CodecStats;
use crate::parallel::{BatchOutcome, RecoveryPolicy};
use crate::select::GroupScratch;
use crate::EccoConfig;

/// A tensor compressed into fixed 64-byte blocks.
#[derive(Clone, Debug)]
pub struct CompressedTensor {
    rows: usize,
    cols: usize,
    group_size: usize,
    tensor_scale: Po2Scale,
    blocks: Vec<Block64>,
}

impl CompressedTensor {
    /// Assembles a compressed tensor from raw parts (codec-internal).
    pub(crate) fn from_parts(
        rows: usize,
        cols: usize,
        group_size: usize,
        tensor_scale: Po2Scale,
        blocks: Vec<Block64>,
    ) -> CompressedTensor {
        CompressedTensor {
            rows,
            cols,
            group_size,
            tensor_scale,
            blocks,
        }
    }

    /// Rebuilds this tensor around a replacement block stream (same
    /// shape, group size, and scale) — the failure-injection surface
    /// the serving fuzz/test layers use to model bit rot in cold
    /// storage. The result is *untrusted*: feed it only to the
    /// report-returning decode paths
    /// ([`WeightCodec::decompress_batch_report`](crate::WeightCodec::decompress_batch_report),
    /// [`KvCodec::decompress_batch_report`](crate::KvCodec::decompress_batch_report)),
    /// which map corruption onto located errors instead of panicking.
    pub fn with_blocks(&self, blocks: Vec<Block64>) -> CompressedTensor {
        CompressedTensor {
            rows: self.rows,
            cols: self.cols,
            group_size: self.group_size,
            tensor_scale: self.tensor_scale,
            blocks,
        }
    }

    /// The per-tensor FP16→FP8 power-of-two scale this tensor was
    /// compressed under.
    pub fn tensor_scale(&self) -> Po2Scale {
        self.tensor_scale
    }

    /// Original row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Original column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Values per group this tensor was compressed at (128 in the 4×
    /// format).
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The compressed payload size in bytes (blocks only; tensor metadata
    /// is shared and accounted separately).
    pub fn compressed_bytes(&self) -> usize {
        self.blocks.len() * ecco_bits::BLOCK_BYTES
    }

    /// Achieved compression ratio versus FP16 storage.
    pub fn ratio_vs_fp16(&self) -> f64 {
        (self.rows * self.cols * 2) as f64 / self.compressed_bytes() as f64
    }

    /// Borrows the block array.
    pub fn blocks(&self) -> &[Block64] {
        &self.blocks
    }
}

/// The weight codec: offline calibration + MSE-optimal compression.
///
/// # Examples
///
/// ```
/// use ecco_core::{EccoConfig, WeightCodec};
/// use ecco_tensor::{synth::SynthSpec, TensorKind};
///
/// let t = SynthSpec::for_kind(TensorKind::Weight, 32, 256).generate();
/// let codec = WeightCodec::calibrate(&[&t], &EccoConfig::default());
/// let (ct, stats) = codec.compress(&t);
/// assert_eq!(ct.ratio_vs_fp16(), 4.0);
/// assert!(stats.nmse() < 0.01);
/// ```
#[derive(Clone, Debug)]
pub struct WeightCodec {
    meta: TensorMetadata,
    /// Per-column mean |activation| used for activation-aware pattern
    /// selection, when calibrated with [`WeightCodec::calibrate_aware`].
    act_mags: Option<Vec<f32>>,
}

impl WeightCodec {
    /// Calibrates metadata (shared patterns, codebooks, scales) on the
    /// given tensors — the paper uses a small calibration set from The
    /// Pile; this reproduction uses the tensors themselves or synthetic
    /// calibration tensors of the same distribution.
    ///
    /// The per-group k-means fits and statistics collection run across
    /// the worker pool; the result is bit-identical to the sequential
    /// reference regardless of thread count (see
    /// [`TensorMetadata::calibrate`]).
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty or shapes are not multiples of 128.
    pub fn calibrate(tensors: &[&Tensor], cfg: &EccoConfig) -> WeightCodec {
        WeightCodec {
            meta: TensorMetadata::calibrate(tensors, cfg, PatternSelector::MseOptimal),
            act_mags: None,
        }
    }

    /// Activation-aware calibration (the paper's step 3): per-group
    /// k-means and pattern selection are weighted by the squared mean
    /// |activation| of each weight's input channel. Parallel and
    /// deterministic, like [`WeightCodec::calibrate`].
    ///
    /// # Panics
    ///
    /// Panics if any tensor's column count differs from `col_mags.len()`.
    pub fn calibrate_aware(tensors: &[&Tensor], col_mags: &[f32], cfg: &EccoConfig) -> WeightCodec {
        let mags: Vec<&[f32]> = tensors.iter().map(|_| col_mags).collect();
        WeightCodec {
            meta: TensorMetadata::calibrate_weighted(
                tensors,
                Some(&mags),
                cfg,
                PatternSelector::MseOptimal,
            ),
            act_mags: Some(col_mags.to_vec()),
        }
    }

    /// Wraps pre-built metadata (used by the hardware models and tests).
    pub fn from_metadata(meta: TensorMetadata) -> WeightCodec {
        WeightCodec {
            meta,
            act_mags: None,
        }
    }

    /// The shared tensor metadata.
    pub fn metadata(&self) -> &TensorMetadata {
        &self.meta
    }

    /// Compresses a tensor; returns the blocks and encoding statistics
    /// (including round-trip error, which requires decoding each block —
    /// done inline so the stats are exact).
    ///
    /// # Panics
    ///
    /// Panics if the tensor length is not a multiple of the group size.
    pub fn compress(&self, tensor: &Tensor) -> (CompressedTensor, CodecStats) {
        let scale = TensorMetadata::scale_for(tensor);
        let meta = &self.meta;
        let gs = meta.group_size();
        let mut stats = CodecStats::default();
        let mut blocks = Vec::with_capacity(tensor.len() / gs);
        // One selection scratch for the whole tensor, and (for the
        // activation-aware path) the squared channel magnitudes computed
        // once up front — the per-group loop below never allocates for
        // selection or quantization.
        let mut scratch = GroupScratch::new();
        let w2_all: Option<Vec<f32>> = self.act_mags.as_ref().map(|mags| {
            assert_eq!(mags.len(), tensor.cols(), "magnitude/column mismatch");
            mags.iter().map(|&m| m * m).collect()
        });
        for (gi, g) in tensor.groups(gs).enumerate() {
            let (block, info) = match &w2_all {
                Some(w2) => {
                    let col0 = (gi * gs) % tensor.cols();
                    encode_group_weighted_scratch(
                        g,
                        meta,
                        scale,
                        &w2[col0..col0 + gs],
                        &mut scratch,
                    )
                }
                None => {
                    encode_group_scratch(g, meta, scale, PatternSelector::MseOptimal, &mut scratch)
                }
            };
            stats.record(&info, gs);
            let (out, _) = decode_group(&block, meta, scale).expect("own blocks decode");
            stats.record_error(g, &out);
            blocks.push(block);
        }
        (
            CompressedTensor {
                rows: tensor.rows(),
                cols: tensor.cols(),
                group_size: gs,
                tensor_scale: scale,
                blocks,
            },
            stats,
        )
    }

    /// [`WeightCodec::compress`] across a thread pool: groups are sharded
    /// over workers and encoded independently, producing bit-identical
    /// blocks and the same statistics (see [`crate::parallel`]).
    ///
    /// # Panics
    ///
    /// Panics if the tensor length is not a multiple of the group size,
    /// or if this codec was calibrated activation-aware (the weighted
    /// path is bound to [`WeightCodec::compress`]).
    pub fn compress_parallel(&self, tensor: &Tensor) -> (CompressedTensor, CodecStats) {
        assert!(
            self.act_mags.is_none(),
            "activation-aware compression is calibration-bound; use compress()"
        );
        let scale = TensorMetadata::scale_for(tensor);
        let (blocks, stats) = crate::parallel::encode_groups_parallel(
            tensor,
            &self.meta,
            scale,
            PatternSelector::MseOptimal,
        );
        (
            CompressedTensor {
                rows: tensor.rows(),
                cols: tensor.cols(),
                group_size: self.meta.group_size(),
                tensor_scale: scale,
                blocks,
            },
            stats,
        )
    }

    /// Compresses many tensors in **one pool pass**: every tensor's
    /// groups enter the shared worker pool as one chunk list, so
    /// concurrent requests share executors instead of running their
    /// pipelines back to back (or oversubscribing threads). Results are
    /// bit-identical to calling [`WeightCodec::compress`] per tensor, in
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if any tensor's length is not a multiple of the group
    /// size (checked up front, before any encoding starts), or if this
    /// codec was calibrated activation-aware — like
    /// [`WeightCodec::compress_parallel`], the weighted path is bound to
    /// [`WeightCodec::compress`].
    pub fn compress_batch(&self, tensors: &[&Tensor]) -> Vec<(CompressedTensor, CodecStats)> {
        assert!(
            self.act_mags.is_none(),
            "activation-aware compression is calibration-bound; use compress()"
        );
        let gs = self.meta.group_size();
        for t in tensors {
            assert_eq!(t.len() % gs, 0, "tensor not a multiple of group size");
        }
        // Per-tensor scales are fixed before submission.
        let scales: Vec<Po2Scale> = tensors
            .iter()
            .map(|t| TensorMetadata::scale_for(t))
            .collect();
        let counts: Vec<usize> = tensors.iter().map(|t| t.len() / gs).collect();

        let encoded = crate::parallel::encode_tensors_batch_with(&counts, |ti, lo, hi| {
            crate::parallel::encode_run(
                tensors[ti].data(),
                &self.meta,
                scales[ti],
                PatternSelector::MseOptimal,
                lo,
                hi,
            )
        });

        encoded
            .into_iter()
            .zip(tensors)
            .zip(scales)
            .map(|(((blocks, stats), t), tensor_scale)| {
                (
                    CompressedTensor {
                        rows: t.rows(),
                        cols: t.cols(),
                        group_size: gs,
                        tensor_scale,
                        blocks,
                    },
                    stats,
                )
            })
            .collect()
    }

    /// Decompresses many tensors in **one pool pass** — the decode twin
    /// of [`WeightCodec::compress_batch`]. Per-tensor failures stay
    /// isolated: a corrupted block (or even a panicking worker task)
    /// poisons only its own tensor's entry, as the first
    /// [`DecodeError`](crate::DecodeError) in block order, while
    /// the rest of the batch decodes bit-identically to
    /// [`WeightCodec::decompress`].
    ///
    /// # Panics
    ///
    /// Panics if any tensor's group size mismatches the codec's
    /// (checked up front).
    pub fn decompress_batch(
        &self,
        cts: &[&CompressedTensor],
    ) -> Vec<Result<Tensor, crate::block::DecodeError>> {
        crate::parallel::decompress_batch(&self.meta, cts)
    }

    /// Skip-and-continue batched decompression: one pool pass over every
    /// tensor, returning a per-tensor [`BatchOutcome`] report instead of
    /// failing slots outright — the ingest entry point where one bad
    /// frame must not kill the batch.
    ///
    /// Unlike [`WeightCodec::decompress_batch`], nothing panics on
    /// malformed inputs: a tensor whose group size disagrees with the
    /// codec's, or whose block count disagrees with its shape, reports a
    /// located [`LengthMismatch`](crate::DecodeErrorKind::LengthMismatch) /
    /// [`TruncatedStream`](crate::DecodeErrorKind::TruncatedStream) without touching its blocks.
    /// Healthy tensors decode bit-identically to the per-tensor loop;
    /// under [`RecoveryPolicy::SalvageBlocks`] corrupt blocks are
    /// zero-filled and reported individually
    /// ([`BatchOutcome::Salvaged`]). See
    /// [`crate::parallel::decompress_batch_report`].
    pub fn decompress_batch_report(
        &self,
        cts: &[&CompressedTensor],
        policy: RecoveryPolicy,
    ) -> Vec<BatchOutcome> {
        let slots: Vec<_> = cts.iter().map(|&ct| Ok(ct)).collect();
        crate::parallel::decompress_batch_report(&self.meta, &slots, policy)
    }

    /// [`WeightCodec::decompress`] across a thread pool; bit-identical
    /// output.
    ///
    /// # Panics
    ///
    /// Panics on mismatched group size or corrupted blocks.
    pub fn decompress_parallel(&self, ct: &CompressedTensor) -> Tensor {
        assert_eq!(ct.group_size, self.meta.group_size(), "group size mismatch");
        let data =
            crate::parallel::decode_groups_parallel(ct.blocks(), &self.meta, ct.tensor_scale)
                .expect("valid blocks");
        Tensor::from_vec(ct.rows, ct.cols, data)
    }

    /// Decompresses back to FP16 values.
    ///
    /// # Panics
    ///
    /// Panics if the compressed tensor was produced by a codec with a
    /// different group size or corrupted blocks.
    pub fn decompress(&self, ct: &CompressedTensor) -> Tensor {
        assert_eq!(ct.group_size, self.meta.group_size(), "group size mismatch");
        let mut data = Vec::with_capacity(ct.rows * ct.cols);
        for b in &ct.blocks {
            decode_group_into(b, &self.meta, ct.tensor_scale, &mut data).expect("valid block");
        }
        Tensor::from_vec(ct.rows, ct.cols, data)
    }

    /// Convenience: compress + decompress, returning the reconstruction
    /// and statistics. This is the entry point the accuracy harness uses.
    pub fn roundtrip(&self, tensor: &Tensor) -> (Tensor, CodecStats) {
        let (ct, stats) = self.compress(tensor);
        (self.decompress(&ct), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::DecodeErrorKind;
    use ecco_tensor::{stats::nmse, synth::SynthSpec, TensorKind};

    fn cfg() -> EccoConfig {
        EccoConfig {
            num_patterns: 16,
            books_per_pattern: 4,
            max_calibration_groups: 256,
            ..EccoConfig::default()
        }
    }

    #[test]
    fn four_x_ratio_exact() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 32, 512).generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (ct, _) = codec.compress(&t);
        assert_eq!(ct.compressed_bytes(), t.len() / 2);
        assert_eq!(ct.ratio_vs_fp16(), 4.0);
    }

    #[test]
    fn roundtrip_preserves_shape_and_quality() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 32, 512)
            .seeded(21)
            .generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (out, stats) = codec.roundtrip(&t);
        assert_eq!((out.rows(), out.cols()), (32, 512));
        let e = nmse(&t, &out);
        assert!(e < 0.01, "weight NMSE {e}");
        assert!(
            (stats.nmse() - e).abs() < 1e-9,
            "stats agree with direct NMSE"
        );
    }

    #[test]
    fn ecco_beats_uniform_int4_on_same_groups() {
        // The headline accuracy claim: non-uniform k-means + Huffman +
        // padding beats plain round-to-nearest 4-bit on the same grouping.
        let t = SynthSpec::for_kind(TensorKind::Weight, 32, 512)
            .seeded(22)
            .generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (out, _) = codec.roundtrip(&t);
        let ecco_err = nmse(&t, &out);

        // Group-wise asymmetric INT4 RTN.
        let mut rtn = t.clone();
        for g in rtn.data_mut().chunks_mut(128) {
            let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
            for &x in g.iter() {
                lo = lo.min(x);
                hi = hi.max(x);
            }
            let scale = if hi > lo { (hi - lo) / 15.0 } else { 1.0 };
            for x in g.iter_mut() {
                let q = ((*x - lo) / scale).round().clamp(0.0, 15.0);
                *x = ecco_numerics::round_f16(lo + q * scale);
            }
        }
        let rtn_err = nmse(&t, &rtn);
        assert!(
            ecco_err < rtn_err,
            "Ecco NMSE {ecco_err} must beat INT4 RTN {rtn_err}"
        );
    }

    #[test]
    fn aware_compress_matches_two_step_reference() {
        // The fused weighted encode (select + quantize in one sweep) must
        // produce the same blocks as the two-step path: weighted selection
        // first, then encoding with the explicit pattern id.
        let t = SynthSpec::for_kind(TensorKind::Weight, 16, 512)
            .seeded(26)
            .generate();
        let mags: Vec<f32> = (0..t.cols())
            .map(|c| 0.1 + (c % 11) as f32 * 0.07)
            .collect();
        let codec = WeightCodec::calibrate_aware(&[&t], &mags, &cfg());
        let meta = codec.metadata();
        let scale = TensorMetadata::scale_for(&t);
        let gs = meta.group_size();
        let mut scratch = GroupScratch::new();
        for (gi, g) in t.groups(gs).enumerate() {
            let col0 = (gi * gs) % t.cols();
            let w2: Vec<f32> = mags[col0..col0 + gs].iter().map(|&m| m * m).collect();
            let ng = crate::group::normalize_group(g, scale);
            let kp = meta.select_pattern_weighted(&ng, &w2);
            let (two_step, info_a) = crate::block::encode_group_with_pattern(g, meta, scale, kp);
            let (fused, info_b) = encode_group_weighted_scratch(g, meta, scale, &w2, &mut scratch);
            assert_eq!(two_step.as_bytes(), fused.as_bytes());
            assert_eq!(info_a, info_b);
        }
    }

    #[test]
    fn parallel_compress_matches_sequential() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 32, 512)
            .seeded(25)
            .generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (ct_seq, stats_seq) = codec.compress(&t);
        let (ct_par, stats_par) = codec.compress_parallel(&t);
        assert_eq!(ct_seq.blocks(), ct_par.blocks(), "bit-identical blocks");
        assert_eq!(stats_seq.groups, stats_par.groups);
        assert!((stats_seq.nmse() - stats_par.nmse()).abs() < 1e-12);
        let out_seq = codec.decompress(&ct_seq);
        let out_par = codec.decompress_parallel(&ct_par);
        assert_eq!(out_seq.data(), out_par.data());
    }

    #[test]
    fn batch_compress_matches_per_tensor_loop() {
        let tensors: Vec<_> = (0..5)
            .map(|i| {
                SynthSpec::for_kind(TensorKind::Weight, 4, 512)
                    .seeded(40 + i)
                    .generate()
            })
            .collect();
        let refs: Vec<&_> = tensors.iter().collect();
        let codec = WeightCodec::calibrate(&refs, &cfg());

        let batch = codec.compress_batch(&refs);
        assert_eq!(batch.len(), tensors.len());
        for (t, (ct, stats)) in tensors.iter().zip(&batch) {
            let (want_ct, want_stats) = codec.compress(t);
            assert_eq!(ct.blocks(), want_ct.blocks(), "batch encode diverged");
            assert_eq!(ct.tensor_scale(), want_ct.tensor_scale());
            assert_eq!(stats.groups, want_stats.groups);
            assert!((stats.nmse() - want_stats.nmse()).abs() < 1e-12);
        }

        let cts: Vec<&_> = batch.iter().map(|(ct, _)| ct).collect();
        let decoded = codec.decompress_batch(&cts);
        for ((t, (ct, _)), out) in tensors.iter().zip(&batch).zip(decoded) {
            let out = out.expect("valid blocks decode");
            assert_eq!(out.data(), codec.decompress(ct).data());
            assert_eq!((out.rows(), out.cols()), (t.rows(), t.cols()));
        }
    }

    #[test]
    fn batch_decompress_isolates_corrupt_tensors() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(45)
            .generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (good, _) = codec.compress(&t);
        let mut bad = good.clone();
        bad.blocks[2] = ecco_bits::Block64::from_bytes([0xFF; 64]);

        let out = codec.decompress_batch(&[&good, &bad, &good]);
        assert!(out[0].is_ok() && out[2].is_ok());
        assert_eq!(
            out[0].as_ref().unwrap().data(),
            codec.decompress(&good).data()
        );
        assert!(out[1].is_err(), "corrupt tensor must fail alone");
    }

    #[test]
    fn batch_report_isolates_and_salvages() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(46)
            .generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (good, _) = codec.compress(&t);
        let mut bad = good.clone();
        bad.blocks[2] = ecco_bits::Block64::from_bytes([0xFF; 64]);
        let reference = codec.decompress(&good);

        // FailTensor: the corrupt tensor fails with a located error, the
        // healthy neighbours are bit-identical to the per-tensor loop.
        let report =
            codec.decompress_batch_report(&[&good, &bad, &good], RecoveryPolicy::default());
        assert_eq!(report[0].values().unwrap(), reference.data());
        assert_eq!(report[2].values().unwrap(), reference.data());
        match &report[1] {
            BatchOutcome::Failed(e) => {
                assert_eq!((e.tensor, e.block), (Some(1), Some(2)));
            }
            other => panic!("expected failure, got {other:?}"),
        }

        // SalvageBlocks: only block 2's group is zeroed.
        let report = codec.decompress_batch_report(&[&good, &bad], RecoveryPolicy::SalvageBlocks);
        match &report[1] {
            BatchOutcome::Salvaged { values, bad_blocks } => {
                let gs = codec.metadata().group_size();
                let mut want = reference.data().to_vec();
                want[2 * gs..3 * gs].fill(0.0);
                assert_eq!(values, &want);
                assert_eq!(bad_blocks.len(), 1);
                assert_eq!(
                    (bad_blocks[0].tensor, bad_blocks[0].block),
                    (Some(1), Some(2))
                );
            }
            other => panic!("expected salvage, got {other:?}"),
        }

        // Shape lies never panic: a truncated block array and a group-size
        // mismatch each fail their own slot with the right kind.
        let mut short = good.clone();
        short.blocks.pop();
        let mut wrong_gs = good.clone();
        wrong_gs.group_size = 64;
        let report = codec
            .decompress_batch_report(&[&short, &wrong_gs, &good], RecoveryPolicy::SalvageBlocks);
        match &report[0] {
            BatchOutcome::Failed(e) => {
                assert_eq!(e.kind, DecodeErrorKind::TruncatedStream);
                assert_eq!((e.tensor, e.block), (Some(0), Some(short.blocks.len())));
            }
            other => panic!("short tensor: {other:?}"),
        }
        match &report[1] {
            BatchOutcome::Failed(e) => assert_eq!(e.kind, DecodeErrorKind::LengthMismatch),
            other => panic!("group-size lie: {other:?}"),
        }
        assert_eq!(report[2].values().unwrap(), reference.data());
    }

    #[test]
    fn cross_tensor_calibration() {
        // Calibrate on one tensor, compress another from the same
        // distribution family: quality must hold (shared patterns
        // generalize).
        let a = SynthSpec::for_kind(TensorKind::Weight, 32, 512)
            .seeded(23)
            .generate();
        let b = SynthSpec::for_kind(TensorKind::Weight, 32, 512)
            .seeded(24)
            .generate();
        let codec = WeightCodec::calibrate(&[&a], &cfg());
        let (out, _) = codec.roundtrip(&b);
        assert!(nmse(&b, &out) < 0.02);
    }

    #[test]
    fn stats_cover_all_groups() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 16, 512).generate();
        let codec = WeightCodec::calibrate(&[&t], &cfg());
        let (_, stats) = codec.compress(&t);
        assert_eq!(stats.groups, t.len() / 128);
        assert_eq!(stats.values, t.len());
    }
}
