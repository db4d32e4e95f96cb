//! The hardware compression pipeline (Figure 9 of the paper).
//!
//! Stage 1: the [`BitonicSorter`] extracts the scale factor, the top-16
//! sorted values/indices for outlier padding, and the group min/max.
//! Stage 2: the pattern selector scores all 16 shared patterns with the
//! 2-comparison min/max fitness. Stage 3: four Huffman encoders encode
//! the group in parallel, the shortest stream wins, and the result is
//! concatenated with the outliers and clipped to 512 bits.
//!
//! The model is proven equivalent to the reference codec
//! ([`ecco_core::encode_group`] under the min/max selector), which is the
//! property that lets the paper's area/latency numbers stand in for the
//! software codec's behaviour.

use ecco_bits::{BitWriter, Block64, BLOCK_BITS};
use ecco_core::block::{EncodedGroupInfo, OUTLIER_BITS};
use ecco_core::{normalize_group, TensorMetadata, SCALE_SYMBOL};
use ecco_numerics::{Po2Scale, F8E4M3};

use crate::bitonic::BitonicSorter;

/// Per-stage activity of one group compression (pipeline accounting).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompressorTrace {
    /// Compare stages spent in the bitonic sorter.
    pub sorter_stages: usize,
    /// Patterns scored by the min/max selector.
    pub patterns_scored: usize,
    /// Parallel Huffman encoders engaged.
    pub encoders: usize,
}

/// The hardware compressor bound to the shared codec tables and one
/// tensor's FP8 scale.
#[derive(Clone, Debug)]
pub struct HwCompressor<'a> {
    meta: &'a TensorMetadata,
    scale: Po2Scale,
    sorter: BitonicSorter,
}

impl<'a> HwCompressor<'a> {
    /// Creates a compressor over `meta` (at most 16 patterns, per the
    /// paper's hardware reduction) for a tensor compressed under `scale`.
    ///
    /// # Panics
    ///
    /// Panics if the metadata holds more than 16 patterns.
    pub fn new(meta: &'a TensorMetadata, scale: Po2Scale) -> HwCompressor<'a> {
        assert!(
            meta.num_patterns() <= 16,
            "the hardware pattern selector supports at most 16 patterns"
        );
        HwCompressor {
            meta,
            scale,
            sorter: BitonicSorter::new(),
        }
    }

    /// Compresses one 128-value group through the staged pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `group.len() != 128`.
    pub fn compress_group(&self, group: &[f32]) -> (Block64, EncodedGroupInfo, CompressorTrace) {
        assert_eq!(group.len(), self.meta.group_size(), "group size mismatch");

        // Stage 1: bitonic sorter.
        let sorted = self.sorter.sort(group);
        let (max_pos, _) = sorted.absmax();

        // Normalization (the shared multiply-and-round circuit).
        let ng = normalize_group(group, self.scale);
        debug_assert_eq!(ng.max_pos, max_pos, "sorter and normalizer agree");

        // Stage 2: min/max pattern selector (2 comparisons per pattern).
        let (lo, hi) = {
            let (rlo, rhi) = sorted.minmax_excluding_absmax();
            (rlo / ng.scale_mag, rhi / ng.scale_mag)
        };
        let mut kp = 0usize;
        let mut best = f64::INFINITY;
        for (i, p) in self.meta.patterns().iter().enumerate() {
            let fit = p.minmax_fitness(lo, hi);
            if fit < best {
                best = fit;
                kp = i;
            }
        }
        let pattern = &self.meta.patterns()[kp];

        // Value mappers: symbol per lane.
        let symbols: Vec<u16> = ng
            .values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                if i == ng.max_pos {
                    SCALE_SYMBOL
                } else {
                    pattern.nearest(v)
                }
            })
            .collect();

        // Stage 3: four parallel encoders; shortest total length wins.
        let books = &self.meta.books()[kp];
        let (book_id, data_len) = books
            .iter()
            .enumerate()
            .map(|(i, b)| (i, b.encoded_len(&symbols)))
            .min_by_key(|&(_, len)| len)
            .expect("H >= 1");
        let book = &books[book_id];

        // Concatenated result: header, data (clipped), outliers.
        let mut w = BitWriter::with_capacity(BLOCK_BITS);
        if self.meta.id_hf_bits() > 0 {
            w.write_bits(book_id as u64, self.meta.id_hf_bits());
        }
        w.write_bits(ng.sf_bits as u64, 8);
        self.meta.pattern_code().encode_symbol(&mut w, kp as u16);
        let header_bits = w.bit_len();
        let budget = BLOCK_BITS - header_bits;

        let mut info = EncodedGroupInfo {
            pattern_id: kp,
            book_id,
            header_bits,
            ..EncodedGroupInfo::default()
        };

        if data_len <= budget {
            for &s in &symbols {
                book.encode_symbol(&mut w, s);
            }
            info.data_bits = data_len;
            let n_out = (budget - data_len) / OUTLIER_BITS;
            for &(pos, val) in sorted.top_outliers(n_out) {
                let f8 = F8E4M3::from_f32(self.scale.compress(val));
                w.write_bits(pos as u64, 7);
                w.write_bits(f8.to_bits() as u64, 8);
                info.padded_outliers += 1;
            }
        } else {
            let mut full = 0usize;
            for &s in &symbols {
                let len = book.code_len(s) as usize;
                let room = BLOCK_BITS - w.bit_len();
                if len <= room {
                    book.encode_symbol(&mut w, s);
                    full += 1;
                } else {
                    if room > 0 {
                        w.write_bits((book.code(s) as u64) >> (len - room), room as u32);
                    }
                    break;
                }
            }
            info.data_bits = BLOCK_BITS - header_bits;
            info.clipped_symbols = self.meta.group_size() - full;
        }

        let block = Block64::from_writer(w).expect("pipeline never exceeds 512 bits");
        let trace = CompressorTrace {
            sorter_stages: sorted.stages,
            patterns_scored: self.meta.num_patterns(),
            encoders: books.len(),
        };
        (block, info, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_core::{encode_group, EccoConfig, PatternSelector};
    use ecco_tensor::{synth::SynthSpec, Tensor, TensorKind};

    fn meta_for(t: &Tensor) -> TensorMetadata {
        let cfg = EccoConfig {
            num_patterns: 16,
            books_per_pattern: 4,
            max_calibration_groups: 128,
            ..EccoConfig::default()
        };
        TensorMetadata::calibrate(&[t], &cfg, PatternSelector::MinMax)
    }

    #[test]
    fn equivalent_to_reference_codec() {
        let t = SynthSpec::for_kind(TensorKind::KCache, 16, 512)
            .seeded(111)
            .generate();
        let meta = meta_for(&t);
        let scale = TensorMetadata::scale_for(&t);
        let hw = HwCompressor::new(&meta, scale);
        for g in t.groups(128) {
            let (ref_block, ref_info) = encode_group(g, &meta, scale, PatternSelector::MinMax);
            let (hw_block, hw_info, _) = hw.compress_group(g);
            assert_eq!(ref_info, hw_info);
            assert_eq!(ref_block.as_bytes(), hw_block.as_bytes());
        }
    }

    #[test]
    fn trace_reports_pipeline_shape() {
        let t = SynthSpec::for_kind(TensorKind::VCache, 8, 512)
            .seeded(112)
            .generate();
        let meta = meta_for(&t);
        let hw = HwCompressor::new(&meta, TensorMetadata::scale_for(&t));
        let g = t.groups(128).next().unwrap();
        let (_, _, trace) = hw.compress_group(g);
        assert_eq!(trace.sorter_stages, 28);
        assert_eq!(trace.patterns_scored, 16);
        assert_eq!(trace.encoders, 4);
    }

    #[test]
    fn rejects_oversized_pattern_sets() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(113)
            .generate();
        let cfg = EccoConfig {
            num_patterns: 64,
            max_calibration_groups: 64,
            ..EccoConfig::default()
        };
        let meta = TensorMetadata::calibrate(&[&t], &cfg, PatternSelector::MseOptimal);
        assert!(
            std::panic::catch_unwind(|| HwCompressor::new(&meta, meta.calibration_scale()))
                .is_err()
        );
    }
}
