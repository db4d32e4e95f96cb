//! The speculative parallel Huffman decoder (Figure 8 of the paper),
//! implemented as a **table-driven, zero-allocation** hot path.
//!
//! # Algorithm
//!
//! The 512-bit block is cut into 64 segments of 8 bits. Because code
//! lengths are limited to 2..=8 bits, a segment contains the *start* of
//! between one and four codes, and any code starting in a segment ends
//! within a 15-bit window (7-bit overlap into the next segment). Each
//! segment is decoded speculatively by **8 sub-decoders**, one per
//! possible entry offset 0..=7; the surviving path is then resolved by
//! chaining each segment's end-of-parse offset (`EOP`) into the next
//! segment's entry offset. The result is bit-exact sequential Huffman
//! decoding at 64-way parallelism.
//!
//! # Implementation: LUT probes + EOP chaining
//!
//! The seed implementation modelled the hardware literally: it built a
//! fresh `BitReader` per decoded symbol, kept a `Vec<(u16, usize)>` per
//! speculative path, and merged paths through a 6-stage binary tree that
//! **cloned every symbol vector at every tree node** — O(n log n) copies
//! and thousands of allocations per block. This rewrite keeps the same
//! externally-observable algorithm (same speculative work counts, same
//! bit-exact output) in three allocation-free passes:
//!
//! 1. **Sub-decode.** One [`ecco_bits::BlockCursor`] views the block as
//!    big-endian words; all 64 segments' 8 offset windows come from one
//!    block-at-a-time [`BlockCursor::windows_all`] fill (guarded
//!    word-pair loads amortized across the offsets — portable, AVX2 or
//!    NEON, see [`ecco_bits::WindowDispatch`]), and each segment's 8 are
//!    resolved by one gathered
//!    [`SegmentLut::entries8`] probe (a `2^15`-entry table mapping a
//!    window to its packed chain of up to four `(symbol, end)` pairs —
//!    layout in [`crate::lut`]). Each chain is truncated to its
//!    entry offset's bit budget by index math only, yielding a fixed-size
//!    `SegRecord` (symbols inline, no heap) in a stack table of 64×8
//!    records.
//!
//! 2. **EOP chaining.** The concatenation tree's fixed point is computed
//!    directly: starting from the entry offset of `start_bit`, each
//!    segment's surviving record names the next segment's entry offset via
//!    its `eop` field, so one O(segments) walk selects the surviving
//!    record per segment. (The tree is still *accounted* — `merge_stages`
//!    and `sub_decoder_ops` report the hardware's work, unchanged.)
//!
//! 3. **Gather.** The walk appends each surviving record's symbols into a
//!    caller-provided buffer ([`ParallelDecoder::decode_into`]) — a single
//!    pass, no intermediate vectors.
//!
//! The seed implementation is preserved verbatim in [`seed_port`] so the
//! benches can measure the rewrite against it on identical inputs.
//!
//! # Role: oracle and cost model
//!
//! Nothing in production decodes through this module. The 64×8
//! speculation is free in silicon but pure overhead on a CPU core, where
//! `ecco-core`'s sequential LUT walk is faster. [`decode_block_parallel`]
//! runs the decoder inside core's block frame
//! ([`ecco_core::decode_group_with`]), so the differential suites can
//! hold it to the production decoder block for block, and
//! [`DecodeStats`] reports the hardware's work per block.

use ecco_bits::{Block64, BlockCursor, BLOCK_BITS};
use std::sync::Arc;

use ecco_core::{decode_group_with, DecodeError, TensorMetadata};
use ecco_entropy::Codebook;
use ecco_numerics::Po2Scale;

use crate::lut::{segment_lut, ChainEntry, SegmentLut, MAX_CHAIN, WINDOW_BITS as LUT_WINDOW_BITS};

/// Bits per decoder segment.
pub const SEGMENT_BITS: usize = 8;
/// Number of segments / parallel decoders over a 512-bit block.
pub const NUM_SEGMENTS: usize = BLOCK_BITS / SEGMENT_BITS;
/// Speculative sub-decoders per segment (entry offsets 0..=7).
pub const SUB_DECODERS: usize = 8;
/// Window bits each sub-decoder sees (8 own + 7 overlap).
pub const WINDOW_BITS: usize = 15;

/// One resolved sub-decoder outcome: the codes that *start* inside the
/// segment when entered at a given offset. Fixed-size — lives in a stack
/// table, never on the heap.
#[derive(Clone, Copy, Debug, Default)]
struct SegRecord {
    /// Decoded symbols, in stream order.
    syms: [u16; MAX_CHAIN],
    /// Window-relative end bit of each code (window starts at the entry
    /// offset, so absolute end = `seg*8 + offset + ends[i]`).
    ends: [u8; MAX_CHAIN],
    /// Number of codes decoded (1..=4 unless terminated).
    count: u8,
    /// Entry offset into the next segment (valid iff not terminated).
    eop: u8,
    /// Parse cannot continue (invalid prefix or past end of block).
    terminated: bool,
}

impl SegRecord {
    /// Truncates a window's LUT chain to this entry offset's bit budget
    /// and checks the end-of-block constraint — pure index math.
    #[inline]
    fn from_chain(entry: ChainEntry, seg: usize, offset: usize) -> SegRecord {
        let budget = SEGMENT_BITS - offset;
        let base = seg * SEGMENT_BITS + offset;
        let mut rec = SegRecord::default();
        let mut n = 0usize;
        for i in 0..entry.count() {
            if entry.start(i) >= budget {
                // This code starts in the next segment's own bits.
                break;
            }
            let end = entry.end(i);
            if base + end > BLOCK_BITS {
                rec.terminated = true;
                break;
            }
            rec.syms[n] = entry.sym(i);
            rec.ends[n] = end as u8;
            n += 1;
        }
        rec.count = n as u8;
        if !rec.terminated {
            if entry.bad() && entry.bad_pos() < budget {
                rec.terminated = true;
            } else if n > 0 {
                // Chain stopped because the next start left the segment:
                // offset + end >= 8, and <= 15, so eop is in 0..=7.
                rec.eop = (offset + rec.ends[n - 1] as usize - SEGMENT_BITS) as u8;
            } else {
                // Unreachable for 2..=8-bit codes (start 0 < budget always),
                // but keep the parse well-defined.
                rec.terminated = true;
            }
        }
        rec
    }
}

/// Work/latency accounting for one parallel decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeStats {
    /// Bit position just after the last decoded symbol.
    pub end_bit: usize,
    /// Concatenation-tree stages the hardware would execute.
    pub merge_stages: usize,
    /// Sub-decoder invocations (64 segments × 8 offsets when fully used).
    pub sub_decoder_ops: usize,
}

/// Result of a parallel decode (symbol buffer included, for callers that
/// do not manage their own).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParallelDecodeResult {
    /// The decoded symbol stream (up to the requested count).
    pub symbols: Vec<u16>,
    /// Bit position just after the last decoded symbol.
    pub end_bit: usize,
    /// Concatenation-tree stages executed.
    pub merge_stages: usize,
    /// Sub-decoder invocations (64 segments × 8 offsets when fully used).
    pub sub_decoder_ops: usize,
}

/// The parallel decoder bound to one Huffman codebook.
#[derive(Debug)]
pub struct ParallelDecoder {
    lut: Arc<SegmentLut>,
}

impl ParallelDecoder {
    /// Creates a decoder for `book`, building (or reusing) the book's
    /// sub-decoder chain table ([`segment_lut`]).
    ///
    /// # Panics
    ///
    /// Panics if the book's longest code exceeds 8 bits — the hardware's
    /// 15-bit windows require the 2..=8-bit constraint (the table build
    /// also rejects codes shorter than 2 bits).
    pub fn new(book: &Codebook) -> ParallelDecoder {
        assert!(
            book.max_len() <= SEGMENT_BITS as u8,
            "parallel decoding requires codes of at most 8 bits"
        );
        ParallelDecoder {
            lut: segment_lut(book),
        }
    }

    /// Decodes up to `max_symbols` codes starting at `start_bit`,
    /// appending them to `out` (which is cleared first). Zero heap
    /// allocations beyond `out`'s one-time capacity.
    ///
    /// # Panics
    ///
    /// Panics if `start_bit` is outside the block.
    pub fn decode_into(
        &self,
        block: &Block64,
        start_bit: usize,
        max_symbols: usize,
        out: &mut Vec<u16>,
    ) -> DecodeStats {
        assert!(start_bit < BLOCK_BITS, "start bit outside block");
        out.clear();
        let first_seg = start_bit / SEGMENT_BITS;
        let entry_offset = start_bit % SEGMENT_BITS;
        let segments = NUM_SEGMENTS - first_seg;

        let cursor = BlockCursor::new(block);
        let mut records = [[SegRecord::default(); SUB_DECODERS]; NUM_SEGMENTS];
        self.fill_records(&cursor, first_seg, &mut records);

        // Pass 2+3: EOP chaining resolves the surviving record per
        // segment; gather its symbols as we go.
        let mut end_bit = start_bit;
        let mut offset = entry_offset;
        'walk: for (seg, row) in records.iter().enumerate().skip(first_seg) {
            let rec = &row[offset];
            let base = seg * SEGMENT_BITS + offset;
            for i in 0..rec.count as usize {
                if out.len() == max_symbols {
                    break 'walk;
                }
                out.push(rec.syms[i]);
                end_bit = base + rec.ends[i] as usize;
            }
            if rec.terminated {
                break;
            }
            offset = rec.eop as usize;
        }

        DecodeStats {
            end_bit,
            merge_stages: ceil_log2(segments),
            sub_decoder_ops: segments * SUB_DECODERS,
        }
    }

    /// Pass 1 of the symbol walk: speculative sub-decoders with a
    /// **block-at-a-time** window fill — all 64 segments' 8 offset
    /// windows come from one
    /// [`BlockCursor::windows_all`] call (one `#[target_feature]` shim
    /// crossing per block instead of one per segment, see
    /// `BENCH_codec.json` `window_extract`), then one gathered
    /// [`SegmentLut::entries8`] probe per live segment and 8 records of
    /// pure index math.
    fn fill_records(
        &self,
        cursor: &BlockCursor,
        first_seg: usize,
        records: &mut [[SegRecord; SUB_DECODERS]; NUM_SEGMENTS],
    ) {
        let mut windows = [[0u64; SUB_DECODERS]; NUM_SEGMENTS];
        cursor.windows_all(LUT_WINDOW_BITS, &mut windows);
        for (seg, (row, wins)) in records
            .iter_mut()
            .zip(windows.iter())
            .enumerate()
            .skip(first_seg)
        {
            let chains = self.lut.entries8(wins);
            for (offset, (rec, chain)) in row.iter_mut().zip(chains).enumerate() {
                *rec = SegRecord::from_chain(chain, seg, offset);
            }
        }
    }

    /// Decodes up to `max_symbols` codes starting at `start_bit`.
    ///
    /// Convenience wrapper over [`ParallelDecoder::decode_into`] that
    /// allocates the symbol buffer.
    ///
    /// # Panics
    ///
    /// Panics if `start_bit` is outside the block.
    pub fn decode(
        &self,
        block: &Block64,
        start_bit: usize,
        max_symbols: usize,
    ) -> ParallelDecodeResult {
        let mut symbols = Vec::with_capacity(max_symbols);
        let stats = self.decode_into(block, start_bit, max_symbols, &mut symbols);
        ParallelDecodeResult {
            symbols,
            end_bit: stats.end_bit,
            merge_stages: stats.merge_stages,
            sub_decoder_ops: stats.sub_decoder_ops,
        }
    }
}

/// Stages of a binary reduction over `n` items.
fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as usize
    }
}

/// Full block decompression through the parallel decoder — the block
/// frame of [`ecco_core::decode_group_with`] (header, value table, tail
/// fill, outliers) over [`ParallelDecoder::decode_into`] as its symbol
/// walk, returning the values plus the decoded symbol stream and the
/// modeled hardware cost. The oracle that proves the hardware algorithm
/// equivalent to the production decoder, block for block.
///
/// # Errors
///
/// Returns the same [`DecodeError`]s as the reference decoder.
pub fn decode_block_parallel(
    block: &Block64,
    meta: &TensorMetadata,
    scale: Po2Scale,
) -> Result<(Vec<f32>, ParallelDecodeResult), DecodeError> {
    let gs = meta.group_size();
    let mut values = Vec::with_capacity(gs);
    let mut symbols = Vec::with_capacity(gs);
    let (_, stats) = decode_group_with(
        block,
        meta,
        scale,
        &mut values,
        |book, r, max, table, out| {
            let stats =
                ParallelDecoder::new(book).decode_into(block, r.bit_pos(), max, &mut symbols);
            out.extend(symbols.iter().map(|&s| table.value(s)));
            r.seek(stats.end_bit);
            stats
        },
    )?;
    let result = ParallelDecodeResult {
        symbols,
        end_bit: stats.end_bit,
        merge_stages: stats.merge_stages,
        sub_decoder_ops: stats.sub_decoder_ops,
    };
    Ok((values, result))
}

/// The seed implementation of the speculative decoder, preserved
/// bit-for-bit as the baseline the `parallel_decoder` /
/// `codec_throughput` benches measure the LUT rewrite against. It builds
/// a `BitReader` per decoded symbol and merges `Vec`-backed paths through
/// an explicit binary concatenation tree — the allocation behaviour this
/// PR removed. Do not use outside benchmarks and differential tests.
pub mod seed_port {
    use super::{ParallelDecodeResult, NUM_SEGMENTS, SEGMENT_BITS, SUB_DECODERS};
    use ecco_bits::{Block64, BLOCK_BITS};
    use ecco_entropy::Codebook;

    #[derive(Clone, Debug, Default)]
    struct Path {
        symbols: Vec<(u16, usize)>,
        eop: usize,
        terminated: bool,
    }

    /// Decodes up to `max_symbols` codes starting at `start_bit`, exactly
    /// as the seed's `ParallelDecoder::decode` did.
    ///
    /// # Panics
    ///
    /// Panics if `start_bit` is outside the block or the book has codes
    /// wider than 8 bits.
    pub fn decode(
        book: &Codebook,
        block: &Block64,
        start_bit: usize,
        max_symbols: usize,
    ) -> ParallelDecodeResult {
        assert!(start_bit < BLOCK_BITS, "start bit outside block");
        assert!(book.max_len() <= SEGMENT_BITS as u8);
        let first_seg = start_bit / SEGMENT_BITS;
        let entry_offset = start_bit % SEGMENT_BITS;

        let mut sub_decoder_ops = 0usize;
        let mut runs: Vec<[Path; SUB_DECODERS]> = (first_seg..NUM_SEGMENTS)
            .map(|seg| {
                core::array::from_fn(|offset| {
                    sub_decoder_ops += 1;
                    decode_segment(book, block, seg, offset)
                })
            })
            .collect();

        let mut merge_stages = 0usize;
        while runs.len() > 1 {
            merge_stages += 1;
            let mut next = Vec::with_capacity(runs.len().div_ceil(2));
            let mut it = runs.into_iter();
            while let Some(left) = it.next() {
                match it.next() {
                    Some(right) => next.push(merge_runs(left, &right)),
                    None => next.push(left),
                }
            }
            runs = next;
        }

        let full = &runs[0][entry_offset];
        let take = full.symbols.len().min(max_symbols);
        let symbols: Vec<u16> = full.symbols[..take].iter().map(|&(s, _)| s).collect();
        let end_bit = if take == 0 {
            start_bit
        } else {
            full.symbols[take - 1].1
        };
        ParallelDecodeResult {
            symbols,
            end_bit,
            merge_stages,
            sub_decoder_ops,
        }
    }

    fn decode_segment(book: &Codebook, block: &Block64, seg: usize, offset: usize) -> Path {
        let seg_start = seg * SEGMENT_BITS;
        let seg_end = seg_start + SEGMENT_BITS;
        let mut pos = seg_start + offset;
        let mut path = Path::default();
        let bytes = block.as_bytes();
        while pos < seg_end {
            let mut r = ecco_bits::BitReader::with_limit(bytes, BLOCK_BITS);
            r.seek(pos);
            let window = r.peek_bits_padded(book.max_len() as u32);
            match book.decode_window(window) {
                Some((sym, len)) if pos + len as usize <= BLOCK_BITS => {
                    pos += len as usize;
                    path.symbols.push((sym, pos));
                }
                _ => {
                    path.terminated = true;
                    return path;
                }
            }
        }
        path.eop = pos - seg_end;
        path
    }

    fn merge_runs(
        left: [Path; SUB_DECODERS],
        right: &[Path; SUB_DECODERS],
    ) -> [Path; SUB_DECODERS] {
        core::array::from_fn(|o| {
            let l = &left[o];
            if l.terminated {
                return l.clone();
            }
            let r = &right[l.eop];
            let mut symbols = l.symbols.clone();
            symbols.extend_from_slice(&r.symbols);
            Path {
                symbols,
                eop: r.eop,
                terminated: r.terminated,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecco_bits::BitWriter;
    use ecco_core::{encode_group, EccoConfig, PatternSelector};
    use ecco_tensor::{synth::SynthSpec, Tensor, TensorKind};
    use proptest::prelude::*;

    fn meta_for(t: &Tensor) -> TensorMetadata {
        let cfg = EccoConfig {
            num_patterns: 16,
            books_per_pattern: 4,
            max_calibration_groups: 128,
            ..EccoConfig::default()
        };
        TensorMetadata::calibrate(&[t], &cfg, PatternSelector::MseOptimal)
    }

    #[test]
    fn equivalent_to_sequential_decoder() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 16, 512)
            .seeded(101)
            .generate();
        let meta = meta_for(&t);
        let sc = meta.calibration_scale();
        for g in t.groups(128) {
            let (block, _) = encode_group(g, &meta, sc, PatternSelector::MseOptimal);
            let (seq, _) = ecco_core::decode_group(&block, &meta, sc).unwrap();
            let (par, _) = decode_block_parallel(&block, &meta, sc).unwrap();
            assert_eq!(seq, par, "parallel decode must match sequential");
        }
    }

    #[test]
    fn equivalent_on_clipped_blocks() {
        // Force clipping with deliberately mismatched 4-bit-uniform books.
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(102)
            .generate();
        let calibrated = meta_for(&t);
        let uniform = Codebook::from_frequencies(&[1u64; 16], 4, 4).unwrap();
        let meta = TensorMetadata::from_parts(
            calibrated.calibration_scale(),
            calibrated.patterns().to_vec(),
            vec![vec![uniform; calibrated.books_per_pattern()]; calibrated.num_patterns()],
            calibrated.pattern_code().clone(),
            calibrated.id_hf_bits(),
            calibrated.group_size(),
        )
        .unwrap();
        let sc = meta.calibration_scale();
        let mut clipped_seen = false;
        for g in t.groups(128) {
            let (block, info) = encode_group(g, &meta, sc, PatternSelector::MseOptimal);
            clipped_seen |= info.clipped_symbols > 0;
            let (seq, sinfo) = ecco_core::decode_group(&block, &meta, sc).unwrap();
            let (par, pres) = decode_block_parallel(&block, &meta, sc).unwrap();
            assert_eq!(seq, par);
            assert_eq!(sinfo.decoded_symbols, pres.symbols.len());
        }
        assert!(clipped_seen, "test must exercise the clipped path");
    }

    #[test]
    fn six_merge_stages_for_full_block() {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 512)
            .seeded(103)
            .generate();
        let meta = meta_for(&t);
        let sc = meta.calibration_scale();
        let g = t.groups(128).next().unwrap();
        let (block, _) = encode_group(g, &meta, sc, PatternSelector::MseOptimal);
        let (_, res) = decode_block_parallel(&block, &meta, sc).unwrap();
        // Data starts within the first couple of segments; merging ~63-64
        // segments takes exactly 6 binary stages.
        assert_eq!(res.merge_stages, 6);
        assert!(res.sub_decoder_ops <= NUM_SEGMENTS * SUB_DECODERS);
        assert!(res.sub_decoder_ops >= (NUM_SEGMENTS - 4) * SUB_DECODERS);
    }

    #[test]
    fn window_constraint_enforced() {
        let wide = Codebook::from_frequencies(&(1u64..=64).collect::<Vec<_>>(), 1, 15).unwrap();
        if wide.max_len() > 8 {
            let result = std::panic::catch_unwind(|| ParallelDecoder::new(&wide));
            assert!(result.is_err(), "books wider than 8 bits must be rejected");
        }
    }

    /// Sequential reference decode over raw symbol streams: the plain
    /// `decode_symbol` loop the parallel decoder must be bit-exact with.
    fn sequential_symbols(
        book: &Codebook,
        block: &Block64,
        start_bit: usize,
        max_symbols: usize,
    ) -> (Vec<u16>, usize) {
        let mut r = block.reader();
        r.seek(start_bit);
        let mut out = Vec::new();
        while out.len() < max_symbols {
            match book.decode_symbol(&mut r) {
                Some(s) => out.push(s),
                None => break,
            }
        }
        let end = if out.is_empty() {
            start_bit
        } else {
            r.bit_pos()
        };
        (out, end)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// LUT-decode == seed_port == sequential on random tensors, on
        /// BOTH window-extraction dispatch arms: the batched tier the
        /// host resolved (SIMD where supported) and the forced-scalar
        /// portable tier. Dispatch is re-pinned per block and restored;
        /// every tier is bit-identical, so the global flip is benign for
        /// concurrently running tests.
        #[test]
        fn equivalence_under_random_tensors(seed in 0u64..500) {
            let t = SynthSpec::for_kind(TensorKind::KCache, 4, 512).seeded(seed).generate();
            let meta = meta_for(&t);
            let sc = meta.calibration_scale();
            let host_tier = ecco_bits::window_dispatch();
            for g in t.groups(128) {
                let (block, _) = encode_group(g, &meta, sc, PatternSelector::MinMax);
                let (seq, _) = ecco_core::decode_group(&block, &meta, sc).unwrap();
                let header = ecco_core::block::parse_block_header(&block, &meta).unwrap();
                let oracle = seed_port::decode(
                    &meta.books()[header.kp][header.book_id],
                    &block,
                    header.data_start,
                    meta.group_size(),
                );
                // Batched arm (host dispatch: AVX2/NEON where available).
                let (par, pres) = decode_block_parallel(&block, &meta, sc).unwrap();
                prop_assert_eq!(&seq, &par, "batched arm diverged from sequential");
                prop_assert_eq!(&pres.symbols, &oracle.symbols, "batched arm diverged from seed port");
                prop_assert_eq!(pres.end_bit, oracle.end_bit);
                // Forced-scalar arm.
                ecco_bits::set_window_dispatch(ecco_bits::WindowDispatch::Portable);
                let scalar = decode_block_parallel(&block, &meta, sc);
                ecco_bits::set_window_dispatch(host_tier);
                let (par_s, pres_s) = scalar.unwrap();
                prop_assert_eq!(&seq, &par_s, "forced-scalar arm diverged from sequential");
                prop_assert_eq!(&pres_s.symbols, &oracle.symbols, "forced-scalar arm diverged from seed port");
                prop_assert_eq!(pres_s.end_bit, oracle.end_bit);
            }
        }

        /// Differential fuzz: random 2..=8-bit codebooks × random raw
        /// blocks × random start bits. The LUT decoder, the seed-port
        /// decoder and the sequential reference must agree symbol-for-
        /// symbol — including on garbage windows that terminate early.
        #[test]
        fn lut_decoder_matches_sequential_on_fuzzed_books(
            freqs in prop::collection::vec(0u64..5000, 2..=16),
            bytes in prop::collection::vec(any::<u8>(), 64),
            start in 0usize..64,
            max in 1usize..160,
        ) {
            let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
            prop_assert!(book.lengths().iter().all(|&l| (2..=8).contains(&l)));
            let mut raw = [0u8; 64];
            raw.copy_from_slice(&bytes);
            let block = Block64::from_bytes(raw);

            let (want, want_end) = sequential_symbols(&book, &block, start, max);
            let decoder = ParallelDecoder::new(&book);
            let got = decoder.decode(&block, start, max);
            prop_assert_eq!(&got.symbols, &want, "LUT decoder diverged");
            prop_assert_eq!(got.end_bit, want_end);

            let seed = seed_port::decode(&book, &block, start, max);
            prop_assert_eq!(&seed.symbols, &want, "seed port diverged");
            prop_assert_eq!(seed.end_bit, want_end);
            prop_assert_eq!(seed.merge_stages, got.merge_stages);
            prop_assert_eq!(seed.sub_decoder_ops, got.sub_decoder_ops);
        }

        /// Valid encoded streams (not just garbage): encode random symbols
        /// with a fuzzed book, then require exact recovery through the
        /// parallel path from bit 0.
        #[test]
        fn lut_decoder_roundtrips_encoded_streams(
            freqs in prop::collection::vec(0u64..5000, 2..=16),
            syms in prop::collection::vec(0u16..16, 1..=128),
        ) {
            let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
            let n = book.num_symbols() as u16;
            let symbols: Vec<u16> = syms.iter().map(|&s| s % n).collect();
            let mut w = BitWriter::new();
            let mut fits = 0usize;
            for &s in &symbols {
                if w.bit_len() + book.code_len(s) as usize > BLOCK_BITS {
                    break;
                }
                book.encode_symbol(&mut w, s);
                fits += 1;
            }
            let block = Block64::from_writer(w).expect("within 512 bits");
            let decoder = ParallelDecoder::new(&book);
            let got = decoder.decode(&block, 0, fits);
            prop_assert_eq!(&got.symbols[..], &symbols[..fits]);
            let (want, want_end) = sequential_symbols(&book, &block, 0, fits);
            prop_assert_eq!(&got.symbols, &want);
            prop_assert_eq!(got.end_bit, want_end);
        }
    }
}
