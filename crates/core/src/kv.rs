//! The online KV-cache compression path (4×, min/max pattern selection).
//!
//! Differences from the weight path (Section 3.2 of the paper):
//!
//! * the shared pattern count is reduced to 16 so the hardware pattern
//!   selector stays small,
//! * pattern selection compares only the group's (min, max) against each
//!   pattern's extreme centroids — 2 comparisons instead of a full MSE
//!   evaluation — because the compressor runs online on the write path,
//! * calibration happens offline on captured KV tensors (the paper forwards
//!   the calibration set through the model; this reproduction uses
//!   synthetic KV tensors of the same distribution family).

use ecco_numerics::Po2Scale;
use ecco_tensor::Tensor;

use crate::block::{decode_group_into, DecodeError};
use crate::metadata::{PatternSelector, TensorMetadata};
use crate::metrics::CodecStats;
use crate::parallel::{BatchOutcome, RecoveryPolicy};
use crate::weight::CompressedTensor;
use crate::EccoConfig;

/// Number of shared patterns the hardware KV path supports.
pub const KV_PATTERNS: usize = 16;

/// The KV-cache codec.
///
/// # Examples
///
/// ```
/// use ecco_core::{EccoConfig, KvCodec};
/// use ecco_tensor::{synth::SynthSpec, TensorKind};
///
/// let kv = SynthSpec::for_kind(TensorKind::KCache, 32, 256).generate();
/// let codec = KvCodec::calibrate(&[&kv], &EccoConfig::default());
/// let (ct, stats) = codec.compress(&kv);
/// assert_eq!(ct.ratio_vs_fp16(), 4.0);
/// assert!(stats.nmse() < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct KvCodec {
    meta: TensorMetadata,
}

impl KvCodec {
    /// Calibrates on captured (here: synthetic) KV tensors. The pattern
    /// count is capped at [`KV_PATTERNS`] regardless of `cfg.num_patterns`,
    /// and calibration statistics are collected under the min/max selector
    /// so codebooks match runtime symbol distributions.
    ///
    /// Calibration runs across the worker pool and is bit-identical to the
    /// sequential reference (see [`TensorMetadata::calibrate`]); the
    /// min/max selection the *online* compressor performs per group stays
    /// as cheap as the hardware's two comparisons per pattern.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty.
    pub fn calibrate(tensors: &[&Tensor], cfg: &EccoConfig) -> KvCodec {
        let kv_cfg = EccoConfig {
            num_patterns: cfg.num_patterns.min(KV_PATTERNS),
            ..cfg.clone()
        };
        KvCodec {
            meta: TensorMetadata::calibrate(tensors, &kv_cfg, PatternSelector::MinMax),
        }
    }

    /// Calibrates with the MSE-optimal selector instead — the expensive
    /// variant the paper rejects for hardware; kept for the `abl01`
    /// ablation bench.
    pub fn calibrate_mse(tensors: &[&Tensor], cfg: &EccoConfig) -> KvCodec {
        let kv_cfg = EccoConfig {
            num_patterns: cfg.num_patterns.min(KV_PATTERNS),
            ..cfg.clone()
        };
        KvCodec {
            meta: TensorMetadata::calibrate(tensors, &kv_cfg, PatternSelector::MseOptimal),
        }
    }

    /// The shared tensor metadata.
    pub fn metadata(&self) -> &TensorMetadata {
        &self.meta
    }

    /// Compresses a KV tensor with online min/max pattern selection.
    pub fn compress(&self, tensor: &Tensor) -> (CompressedTensor, CodecStats) {
        self.compress_with(tensor, PatternSelector::MinMax)
    }

    /// Compresses with an explicit selector (ablation support).
    ///
    /// # Panics
    ///
    /// Panics if the tensor length is not a multiple of the group size.
    pub fn compress_with(
        &self,
        tensor: &Tensor,
        selector: PatternSelector,
    ) -> (CompressedTensor, CodecStats) {
        let gs = self.meta.group_size();
        assert_eq!(tensor.len() % gs, 0, "tensor not a multiple of group size");
        let scale = TensorMetadata::scale_for(tensor);
        let (blocks, stats) = crate::parallel::encode_run(
            tensor.data(),
            &self.meta,
            scale,
            selector,
            0,
            tensor.len() / gs,
        );
        (
            CompressedTensor::from_parts(tensor.rows(), tensor.cols(), gs, scale, blocks),
            stats,
        )
    }

    /// Compresses many KV tensors (e.g. every live request's cache
    /// segment) in **one pool pass** with online min/max selection —
    /// the serving-side batched submission. Bit-identical to calling
    /// [`KvCodec::compress`] per tensor, in order; see
    /// [`WeightCodec::compress_batch`](crate::WeightCodec::compress_batch)
    /// for the scheduling model.
    ///
    /// # Panics
    ///
    /// Panics if any tensor's length is not a multiple of the group
    /// size (checked up front, before any encoding starts).
    pub fn compress_batch(&self, tensors: &[&Tensor]) -> Vec<(CompressedTensor, CodecStats)> {
        let gs = self.meta.group_size();
        for t in tensors {
            assert_eq!(t.len() % gs, 0, "tensor not a multiple of group size");
        }
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
                PatternSelector::MinMax,
                lo,
                hi,
            )
        });

        encoded
            .into_iter()
            .zip(tensors)
            .zip(scales)
            .map(|(((blocks, stats), t), scale)| {
                (
                    CompressedTensor::from_parts(t.rows(), t.cols(), gs, scale, blocks),
                    stats,
                )
            })
            .collect()
    }

    /// Decompresses many KV tensors in **one pool pass** — the decode
    /// twin of [`KvCodec::compress_batch`] and the read path of the
    /// paged serving store (`ecco-serve` promotes cold pages through
    /// this). Per-tensor failures stay isolated: a corrupted block
    /// poisons only its own slot, as the first [`DecodeError`] in block
    /// order, while the rest of the batch decodes bit-identically to
    /// [`KvCodec::decompress`].
    ///
    /// # Panics
    ///
    /// Panics if any tensor's group size mismatches the codec's
    /// (checked up front).
    pub fn decompress_batch(&self, cts: &[&CompressedTensor]) -> Vec<Result<Tensor, DecodeError>> {
        crate::parallel::decompress_batch(&self.meta, cts)
    }

    /// Skip-and-continue batched KV decompression: one pool pass over
    /// every tensor, returning a per-tensor [`BatchOutcome`] report —
    /// the fault-tolerant read path a serving store needs, where one
    /// corrupted cold page must not kill a whole session's read.
    ///
    /// Nothing panics on malformed inputs: a tensor whose group size
    /// disagrees with the codec's, or whose block count disagrees with
    /// its shape, reports a located
    /// [`LengthMismatch`](crate::DecodeErrorKind::LengthMismatch) /
    /// [`TruncatedStream`](crate::DecodeErrorKind::TruncatedStream) without touching its
    /// blocks. Healthy tensors decode bit-identically to the per-tensor
    /// loop; under [`RecoveryPolicy::SalvageBlocks`] corrupt blocks are
    /// zero-filled and reported individually
    /// ([`BatchOutcome::Salvaged`]). The same body as
    /// [`WeightCodec::decompress_batch_report`](crate::WeightCodec::decompress_batch_report)
    /// ([`crate::parallel::decompress_batch_report`]).
    pub fn decompress_batch_report(
        &self,
        cts: &[&CompressedTensor],
        policy: RecoveryPolicy,
    ) -> Vec<BatchOutcome> {
        let slots: Vec<_> = cts.iter().map(|&ct| Ok(ct)).collect();
        crate::parallel::decompress_batch_report(&self.meta, &slots, policy)
    }

    /// Decompresses a KV tensor.
    pub fn decompress(&self, ct: &CompressedTensor) -> Tensor {
        let mut data = Vec::with_capacity(ct.rows() * ct.cols());
        for b in ct.blocks() {
            decode_group_into(b, &self.meta, ct.tensor_scale(), &mut data).expect("valid block");
        }
        Tensor::from_vec(ct.rows(), ct.cols(), data)
    }

    /// Compress + decompress convenience for the accuracy harness.
    pub fn roundtrip(&self, tensor: &Tensor) -> (Tensor, CodecStats) {
        let (ct, stats) = self.compress(tensor);
        (self.decompress(&ct), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_bits::Block64;
    use ecco_tensor::{stats::nmse, synth::SynthSpec, TensorKind};

    fn kv_tensor(seed: u64) -> Tensor {
        SynthSpec::for_kind(TensorKind::KCache, 64, 256)
            .seeded(seed)
            .generate()
    }

    #[test]
    fn pattern_count_capped_at_16() {
        let t = kv_tensor(1);
        let codec = KvCodec::calibrate(&[&t], &EccoConfig::default());
        assert_eq!(codec.metadata().num_patterns(), KV_PATTERNS);
    }

    #[test]
    fn online_roundtrip_quality() {
        let t = kv_tensor(2);
        let codec = KvCodec::calibrate(&[&t], &EccoConfig::default());
        let (out, _) = codec.roundtrip(&t);
        let e = nmse(&t, &out);
        assert!(e < 0.05, "KV NMSE {e}");
    }

    #[test]
    fn batch_compress_matches_per_tensor_loop() {
        let tensors: Vec<Tensor> = (0..4).map(|i| kv_tensor(20 + i)).collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let codec = KvCodec::calibrate(&refs, &EccoConfig::default());
        let batch = codec.compress_batch(&refs);
        for (t, (ct, stats)) in tensors.iter().zip(&batch) {
            let (want_ct, want_stats) = codec.compress(t);
            assert_eq!(ct.blocks(), want_ct.blocks(), "KV batch encode diverged");
            assert_eq!(stats.groups, want_stats.groups);
            assert!((stats.nmse() - want_stats.nmse()).abs() < 1e-12);
        }
    }

    #[test]
    fn batch_decompress_matches_per_tensor_loop() {
        let tensors: Vec<Tensor> = (0..4).map(|i| kv_tensor(40 + i)).collect();
        let refs: Vec<&Tensor> = tensors.iter().collect();
        let codec = KvCodec::calibrate(&refs, &EccoConfig::default());
        let cts: Vec<CompressedTensor> = refs.iter().map(|t| codec.compress(t).0).collect();
        let ct_refs: Vec<&CompressedTensor> = cts.iter().collect();
        let batch = codec.decompress_batch(&ct_refs);
        for (r, ct) in batch.iter().zip(&cts) {
            let want = codec.decompress(ct);
            assert_eq!(
                r.as_ref().unwrap().data(),
                want.data(),
                "KV batch decode diverged"
            );
        }
    }

    #[test]
    fn batch_report_salvages_corrupt_kv_page() {
        let t = kv_tensor(50);
        let codec = KvCodec::calibrate(&[&t], &EccoConfig::default());
        let (good, _) = codec.compress(&t);
        let mut blocks = good.blocks().to_vec();
        blocks[2] = Block64::from_bytes([0xFF; 64]);
        let poisoned = CompressedTensor::from_parts(
            good.rows(),
            good.cols(),
            good.group_size(),
            good.tensor_scale(),
            blocks,
        );
        let report =
            codec.decompress_batch_report(&[&good, &poisoned], RecoveryPolicy::SalvageBlocks);
        assert!(report[0].is_ok(), "healthy tensor unaffected");
        match &report[1] {
            BatchOutcome::Salvaged { values, bad_blocks } => {
                let gs = codec.metadata().group_size();
                let want = codec.decompress(&good);
                assert_eq!(&values[..2 * gs], &want.data()[..2 * gs]);
                assert!(values[2 * gs..3 * gs].iter().all(|&v| v == 0.0));
                assert_eq!(bad_blocks.len(), 1);
                assert_eq!(
                    (bad_blocks[0].tensor, bad_blocks[0].block),
                    (Some(1), Some(2)),
                    "error must be located"
                );
            }
            other => panic!("expected salvage, got {other:?}"),
        }

        // FailTensor: the corrupt page fails alone, located.
        let report = codec.decompress_batch_report(&[&good, &poisoned], RecoveryPolicy::FailTensor);
        assert!(report[0].is_ok());
        assert!(matches!(&report[1], BatchOutcome::Failed(e) if e.tensor == Some(1)));
    }

    #[test]
    fn minmax_close_to_mse_optimal() {
        // The paper's claim: the simplified selector costs only a small
        // accuracy drop (Section 3.2). At the pattern-selection level,
        // MSE-optimal is optimal by construction; end-to-end the two may
        // differ either way (codebooks are calibrated under min/max), but
        // must stay in the same quality class.
        let t = kv_tensor(3);
        let codec = KvCodec::calibrate(&[&t], &EccoConfig::default());
        let meta = codec.metadata();
        let scale = TensorMetadata::scale_for(&t);

        let mut fit_mse = 0.0;
        let mut fit_mm = 0.0;
        for g in t.groups(128) {
            let ng = crate::normalize_group(g, scale);
            let vals: Vec<f32> = ng
                .values
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != ng.max_pos)
                .map(|(_, &v)| v)
                .collect();
            let kp_mse = meta.select_pattern(&ng, crate::PatternSelector::MseOptimal);
            let kp_mm = meta.select_pattern(&ng, crate::PatternSelector::MinMax);
            fit_mse += meta.patterns()[kp_mse].sq_error(&vals);
            fit_mm += meta.patterns()[kp_mm].sq_error(&vals);
        }
        assert!(fit_mse <= fit_mm + 1e-9, "MSE-optimal fit can't be worse");

        let (mm_out, _) = codec.roundtrip(&t);
        let (mse_ct, _) = codec.compress_with(&t, crate::PatternSelector::MseOptimal);
        let mse_out = codec.decompress(&mse_ct);
        let e_mm = nmse(&t, &mm_out);
        let e_mse = nmse(&t, &mse_out);
        assert!(
            e_mm <= e_mse * 2.0 + 1e-6 && e_mse <= e_mm * 2.0 + 1e-6,
            "min/max NMSE {e_mm} and MSE-optimal NMSE {e_mse} diverged"
        );
    }

    #[test]
    fn kcache_pads_more_than_weights() {
        // Heavier tails => shorter Huffman data => more padding space used.
        let cfg = EccoConfig::default();
        let k = kv_tensor(4);
        let kv_codec = KvCodec::calibrate(&[&k], &cfg);
        let (_, k_stats) = kv_codec.compress(&k);

        let w = SynthSpec::for_kind(TensorKind::Weight, 64, 256)
            .seeded(4)
            .generate();
        let w_codec = crate::WeightCodec::calibrate(&[&w], &cfg);
        let (_, w_stats) = w_codec.compress(&w);

        assert!(
            k_stats.pad_ratio() > w_stats.pad_ratio(),
            "k-cache pad {} must exceed weight pad {}",
            k_stats.pad_ratio(),
            w_stats.pad_ratio()
        );
    }
}
