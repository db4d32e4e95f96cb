//! Structure-aware fuzzing of the codec's untrusted-ingest surface.
//!
//! Every property here mutates *serialized* artifacts — `ECCM` metadata
//! snapshots and `ECCT` compressed-tensor frames from `ecco::codec::wire`,
//! plus raw 64-byte block streams — with field-targeted bit flips,
//! truncations, length-field lies and block splices, then drives the
//! mutated bytes through both decoder arms. The invariants:
//!
//! * **never panic**: every malformation surfaces as a typed
//!   [`DecodeError`], whatever the mutation;
//! * **located errors**: truncations and corrupt blocks are reported at
//!   the right tensor/block index;
//! * **arm agreement**: the fused production decoder, the two-pass
//!   reference and the hardware parallel oracle return the same values
//!   *and the same errors* on corrupt input, block for block on both
//!   window-dispatch arms, and core's pooled and batched drivers
//!   reproduce them across pool sizes {1, 4}.
//!
//! The vendored proptest honours `PROPTEST_CASES` (the CI fuzz-smoke leg
//! raises it to 256+ under both `ECCO_THREADS=1` and `ECCO_THREADS=4`,
//! with and without `--features force-scalar` so both window-dispatch
//! arms see the same corpus). It has no shrinking, so failures report
//! the deterministic case index instead of a minimized seed.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use ecco::bits::{
    set_window_dispatch, window_dispatch, BitWriter, Block64, WindowDispatch, BLOCK_BYTES,
};
use ecco::codec::block::{
    decode_group, decode_group_into, decode_group_two_pass, parse_block_header, DecodeError,
    DecodeErrorKind,
};
use ecco::codec::decode_groups_parallel;
use ecco::codec::parallel::{decode_tensors_batch_with, RecoveryPolicy};
use ecco::codec::wire::{
    decode_metadata, decode_tensor, encode_metadata, encode_tensor, METADATA_MAGIC,
};
use ecco::codec::{
    BatchOutcome, CompressedTensor, EccoConfig, TensorMetadata, WeightCodec, NUM_CENTROIDS,
};
use ecco::container::{crc32, encode_model, Container, ContainerError, FOOTER_BYTES};
use ecco::entropy::Codebook;
use ecco::hw::{decode_block_parallel, paradec::seed_port};
use ecco::numerics::Po2Scale;
use ecco::prelude::*;
use proptest::prelude::*;

/// The two tensor names in the container fixture — same byte length, so
/// the duplicate-name splice below can overwrite one with the other
/// without reshaping the directory.
const T0: &str = "blk.0.w";
const T1: &str = "blk.1.w";

struct Fixture {
    codec: WeightCodec,
    ct: CompressedTensor,
    ct2: CompressedTensor,
    meta: TensorMetadata,
    meta_bytes: Vec<u8>,
    frame_bytes: Vec<u8>,
    /// ECCF container image holding `ct` as [`T0`] and `ct2` as [`T1`].
    image: Vec<u8>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let t = SynthSpec::for_kind(TensorKind::Weight, 8, 256)
            .seeded(0xF022)
            .generate();
        let t2 = SynthSpec::for_kind(TensorKind::Weight, 4, 256)
            .seeded(0xF023)
            .generate();
        let cfg = EccoConfig {
            num_patterns: 8,
            books_per_pattern: 2,
            max_calibration_groups: 64,
            ..EccoConfig::default()
        };
        let codec = WeightCodec::calibrate(&[&t], &cfg);
        let (ct, _) = codec.compress(&t);
        let (ct2, _) = codec.compress(&t2);
        let meta = codec.metadata().clone();
        let meta_bytes = encode_metadata(&meta);
        let frame_bytes = encode_tensor(&ct);
        let image = encode_model(codec.metadata(), &[(T0, &ct), (T1, &ct2)]);
        Fixture {
            codec,
            ct,
            ct2,
            meta,
            meta_bytes,
            frame_bytes,
            image,
        }
    })
}

/// Recomputes the footer's directory CRC after a directory mutation, so
/// an index-entry *lie* reaches the structural validators instead of
/// being rejected as a checksum mismatch.
fn reseal_directory(image: &mut [u8]) {
    let f = image.len() - FOOTER_BYTES;
    let index_offset = u64::from_le_bytes(image[f..f + 8].try_into().unwrap()) as usize;
    let crc = crc32(&image[index_offset..f]);
    image[f + 8..f + 12].copy_from_slice(&crc.to_le_bytes());
}

/// Absolute byte offset, within the image, of each directory entry's
/// fixed fields (`offset | len | block_count | decoded_len | crc`),
/// found by walking the directory exactly as the format defines it.
fn entry_field_positions(image: &[u8]) -> Vec<usize> {
    let f = image.len() - FOOTER_BYTES;
    let index_offset = u64::from_le_bytes(image[f..f + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(
        image[index_offset + 4..index_offset + 8]
            .try_into()
            .unwrap(),
    );
    let mut pos = index_offset + 28;
    let mut out = Vec::new();
    for _ in 0..count {
        let name_len = u16::from_le_bytes(image[pos..pos + 2].try_into().unwrap()) as usize;
        out.push(pos + 2 + name_len);
        pos += 2 + name_len + 32;
    }
    out
}

/// Unwraps the located decode error out of a container failure.
fn decode_err(e: ContainerError) -> DecodeError {
    match e {
        ContainerError::Decode(d) => d,
        other => panic!("expected a located decode error, got {other}"),
    }
}

/// Decodes a block stream sequentially, returning per-block outcomes.
fn decode_seq(
    blocks: &[Block64],
    meta: &TensorMetadata,
    scale: Po2Scale,
) -> Vec<Result<Vec<f32>, DecodeError>> {
    blocks
        .iter()
        .map(|b| decode_group(b, meta, scale).map(|(v, _)| v))
        .collect()
}

/// Asserts every decoder arm agrees with the sequential reference on
/// `blocks` — same values when healthy, same error kind (located at the
/// first failing block) otherwise.
///
/// The reference is the *fused* decode-to-values walk ([`decode_group`]).
/// Block by block it is pinned bit-for-bit against the two-pass
/// reference ([`decode_group_two_pass`]) and, on both window-dispatch arms,
/// against the hardware oracle ([`decode_block_parallel`]) whose symbol
/// stream must in turn equal the seed implementation's
/// ([`seed_port::decode`]). Core's pooled and batched drivers must then
/// reproduce the whole stream on pools {1, 4}.
fn assert_arms_agree(
    blocks: &[Block64],
    meta: &TensorMetadata,
    scale: Po2Scale,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let seq = decode_seq(blocks, meta, scale);
    let host_tier = window_dispatch();
    for (i, (fused, b)) in seq.iter().zip(blocks).enumerate() {
        match (fused, decode_group_two_pass(b, meta, scale)) {
            (Ok(f), Ok((t, _))) => {
                prop_assert_eq!(bits(f), bits(&t), "block {} fused != two-pass", i)
            }
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.kind, b.kind, "block {} error kind diverged", i)
            }
            (Ok(_), Err(e)) => prop_assert!(
                false,
                "block {i}: two-pass failed ({e}) where fused decoded"
            ),
            (Err(e), Ok(_)) => prop_assert!(
                false,
                "block {i}: fused failed ({e}) where two-pass decoded"
            ),
        }
        for tier in [host_tier, WindowDispatch::Portable] {
            set_window_dispatch(tier);
            let hw = decode_block_parallel(b, meta, scale);
            set_window_dispatch(host_tier);
            match (fused, hw) {
                (Ok(f), Ok((h, trace))) => {
                    prop_assert_eq!(bits(f), bits(&h), "block {} hw != fused ({:?})", i, tier);
                    let header = parse_block_header(b, meta).expect("block decoded");
                    let book = &meta.books()[header.kp][header.book_id];
                    let oracle = seed_port::decode(book, b, header.data_start, meta.group_size());
                    prop_assert_eq!(
                        &trace.symbols,
                        &oracle.symbols,
                        "block {} hw != seed port",
                        i
                    );
                    prop_assert_eq!(trace.end_bit, oracle.end_bit);
                }
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.kind, b.kind, "block {} hw error kind diverged", i)
                }
                (a, b) => prop_assert!(
                    false,
                    "block {i}: hw and fused disagree on success: {:?} vs {:?}",
                    a.as_ref().map(|_| ()),
                    b.map(|_| ())
                ),
            }
        }
    }
    let first_err = seq
        .iter()
        .enumerate()
        .find_map(|(i, r)| r.as_ref().err().map(|e| (i, e.kind)));
    for threads in [1usize, 4] {
        let pool = PoolBuilder::new().threads(threads).build();
        let (pooled, batched) = with_pool(&pool, || {
            let batched = decode_tensors_batch_with(&[blocks], meta.group_size(), |_, b, out| {
                decode_group_into(b, meta, scale, out).map(|_| ())
            });
            (decode_groups_parallel(blocks, meta, scale), batched)
        });
        for (arm, got) in [("pooled", pooled), ("batched", batched[0].clone())] {
            match (&first_err, got) {
                (None, Ok(values)) => {
                    let want: Vec<f32> = seq
                        .iter()
                        .flat_map(|r| r.as_ref().unwrap().iter().copied())
                        .collect();
                    prop_assert_eq!(values, want, "pool {} {} values diverged", threads, arm);
                }
                (Some((i, kind)), Err(e)) => {
                    prop_assert_eq!(
                        e.kind,
                        *kind,
                        "pool {} {} error kind diverged",
                        threads,
                        arm
                    );
                    prop_assert_eq!(
                        e.block,
                        Some(*i),
                        "pool {} {} error block diverged",
                        threads,
                        arm
                    );
                }
                (None, Err(e)) => prop_assert!(
                    false,
                    "pool {threads} {arm}: failed ({e}) where sequential decoded"
                ),
                (Some((i, k)), Ok(_)) => prop_assert!(
                    false,
                    "pool {threads} {arm}: decoded where sequential failed at block {i} ({k:?})"
                ),
            }
        }
    }
    Ok(())
}

/// The bit patterns of a value run, so signed zeros and NaN payloads
/// compare exactly.
fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// MSB-first bit set on a 64-byte block, mirroring the wire layout.
fn set_bits(bytes: &mut [u8; BLOCK_BYTES], start: usize, len: usize, value: u64) {
    for i in 0..len {
        let bit = (value >> (len - 1 - i)) & 1;
        let pos = start + i;
        let mask = 1u8 << (7 - pos % 8);
        if bit == 1 {
            bytes[pos / 8] |= mask;
        } else {
            bytes[pos / 8] &= !mask;
        }
    }
}

proptest! {
    /// Field-targeted bit flips over serialized metadata snapshots:
    /// decode never panics, and when a mutated snapshot still revives,
    /// both decoder arms agree on it block for block.
    #[test]
    fn metadata_snapshot_bitflips_never_panic(
        flips in prop::collection::vec((0usize..2048, 0u8..8), 1..=8),
        region in 0usize..3,
    ) {
        let fix = fixture();
        let mut bytes = fix.meta_bytes.clone();
        // Aim the flips at one structural region: the fixed header, the
        // pattern centroids, or the codebook tables — structure-aware
        // mutation reaches the deep validators plain random bytes miss.
        let patterns_end = 19 + fix.meta.num_patterns() * 15 * 4;
        let (lo, hi) = match region {
            0 => (0usize, 19usize),
            1 => (19, patterns_end),
            _ => (patterns_end, bytes.len()),
        };
        for (off, bit) in &flips {
            let idx = lo + off % (hi - lo);
            bytes[idx] ^= 1 << bit;
        }
        match decode_metadata(&bytes) {
            Err(e) => prop_assert!(
                matches!(
                    e.kind,
                    DecodeErrorKind::TruncatedStream
                        | DecodeErrorKind::CorruptMetadata
                        | DecodeErrorKind::CorruptCodebook
                        | DecodeErrorKind::LengthMismatch
                ),
                "untyped ingest error: {e}"
            ),
            Ok(revived) => {
                // A surviving snapshot must behave: both arms decode the
                // healthy block stream identically under it (values or
                // identical located errors — e.g. a mutated but sorted
                // centroid table decodes different values; both arms
                // must produce the *same* different values).
                assert_arms_agree(fix.ct.blocks(), &revived, fix.ct.tensor_scale())?;
            }
        }
    }

    /// Truncations and length-field lies on compressed-tensor frames:
    /// typed errors only, truncation located at the first missing block.
    #[test]
    fn tensor_frame_truncations_are_located(
        cut in 0usize..4096,
        lie in any::<u32>(),
        lie_count in any::<bool>(),
    ) {
        let fix = fixture();
        let mut bytes = fix.frame_bytes.clone();
        if lie_count {
            // The block-count field must never drive allocation or OOB —
            // it is cross-checked against rows x cols / group_size.
            bytes[19..23].copy_from_slice(&lie.to_le_bytes());
            match decode_tensor(&bytes) {
                Ok(ct) => prop_assert_eq!(ct.blocks(), fix.ct.blocks()),
                Err(e) => prop_assert!(
                    matches!(
                        e.kind,
                        DecodeErrorKind::LengthMismatch | DecodeErrorKind::TruncatedStream
                    ),
                    "lied count produced {e}"
                ),
            }
        } else {
            let cut = cut % bytes.len();
            bytes.truncate(cut);
            let e = decode_tensor(&bytes).unwrap_err();
            prop_assert!(
                matches!(
                    e.kind,
                    DecodeErrorKind::TruncatedStream | DecodeErrorKind::CorruptMetadata
                ),
                "truncation at {cut} produced {e}"
            );
            // Cuts inside the block payload locate the first missing block.
            if cut >= 23 && e.kind == DecodeErrorKind::TruncatedStream {
                prop_assert_eq!(e.block, Some((cut - 23) / BLOCK_BYTES));
            }
        }
    }

    /// Corrupt and spliced block streams: the sequential and parallel
    /// arms agree error-for-error across pools, and the salvage report
    /// zero-fills exactly the corrupt groups.
    #[test]
    fn corrupt_block_streams_keep_arms_in_agreement(
        mutations in prop::collection::vec((0usize..16, 0usize..512), 1..=6),
        splice in any::<bool>(),
        swap in (0usize..16, 0usize..16),
    ) {
        let fix = fixture();
        let mut blocks = fix.ct.blocks().to_vec();
        for (bi, bit) in &mutations {
            let bi = bi % blocks.len();
            let mut bytes = *blocks[bi].as_bytes();
            bytes[bit / 8] ^= 1 << (bit % 8);
            blocks[bi] = Block64::from_bytes(bytes);
        }
        if splice {
            // Splice: blocks are position-independent, so a swapped pair
            // must decode to swapped (or identically failing) groups.
            let (a, b) = (swap.0 % blocks.len(), swap.1 % blocks.len());
            blocks.swap(a, b);
        }
        let scale = fix.ct.tensor_scale();
        assert_arms_agree(&blocks, &fix.meta, scale)?;

        // The per-block salvage report agrees with the sequential scan:
        // zero-filled groups exactly where decode_group fails, located
        // errors naming those blocks.
        let seq = decode_seq(&blocks, &fix.meta, scale);
        let bad: Vec<usize> = seq
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_err().then_some(i))
            .collect();
        let mutated = fix.ct.with_blocks(blocks.clone());
        let report = fix
            .codec
            .decompress_batch_report(&[&mutated], RecoveryPolicy::SalvageBlocks);
        let gs = fix.meta.group_size();
        match &report[0] {
            BatchOutcome::Ok(values) => {
                prop_assert!(bad.is_empty(), "healthy report for corrupt stream");
                let want: Vec<f32> = seq
                    .iter()
                    .flat_map(|r| r.as_ref().unwrap().iter().copied())
                    .collect();
                prop_assert_eq!(values.clone(), want);
            }
            BatchOutcome::Salvaged { values, bad_blocks } => {
                let located: Vec<usize> =
                    bad_blocks.iter().map(|e| e.block.unwrap()).collect();
                prop_assert_eq!(&located, &bad, "salvage disagreed on bad blocks");
                for (i, r) in seq.iter().enumerate() {
                    let got = &values[i * gs..(i + 1) * gs];
                    match r {
                        Ok(v) => prop_assert_eq!(got, &v[..], "healthy block {} altered", i),
                        Err(_) => prop_assert!(
                            got.iter().all(|&x| x == 0.0),
                            "corrupt block {i} not zero-filled"
                        ),
                    }
                }
            }
            BatchOutcome::Failed(e) => prop_assert!(
                false,
                "salvage mode failed the whole tensor: {e}"
            ),
        }
    }
}

proptest! {
    /// Random bit flips anywhere in a container image: opening and
    /// loading never panic, and **checksum-before-decode** holds — a
    /// tensor slot either round-trips bit-identically to the pristine
    /// baseline or fails with a located `ChecksumMismatch`; a flipped
    /// frame can never leak different values out of a "successful" load,
    /// because its CRC is checked before any decode touches it.
    #[test]
    fn container_bitflips_never_panic_or_leak(
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 1..=8),
    ) {
        let fix = fixture();
        let mut image = fix.image.clone();
        let len = image.len();
        for (off, bit) in &flips {
            image[off % len] ^= 1 << bit;
        }
        let container = match Container::from_bytes(image) {
            // Open refused the image with a typed error — that is the
            // no-panic property doing its job.
            Err(_) => return Ok(()),
            Ok(c) => c,
        };
        // If the image opened, the directory survived its CRC, so both
        // names resolve and the report itself cannot fail.
        let slots = container
            .load_report(&[T0, T1], RecoveryPolicy::SalvageBlocks)
            .expect("names come from the CRC-verified directory");
        for (slot, want) in slots.iter().zip([
            fix.codec.decompress(&fix.ct),
            fix.codec.decompress(&fix.ct2),
        ]) {
            match &slot.outcome {
                BatchOutcome::Ok(values) => {
                    prop_assert_eq!(&values[..], want.data(), "flipped frame leaked values")
                }
                BatchOutcome::Failed(e) => prop_assert_eq!(
                    e.kind,
                    DecodeErrorKind::ChecksumMismatch,
                    "frame corruption surfaced as {} instead of a checksum mismatch", e
                ),
                BatchOutcome::Salvaged { .. } => prop_assert!(
                    false,
                    "block-level salvage on a frame whose CRC should have failed first"
                ),
            }
        }
    }

    /// Truncating a container anywhere — tail directory included — is a
    /// typed open failure, never a panic and never a partial success.
    #[test]
    fn container_truncations_always_refuse(cut in 0usize..1 << 16) {
        let fix = fixture();
        let cut = cut % fix.image.len();
        prop_assert!(Container::from_bytes(fix.image[..cut].to_vec()).is_err());
    }
}

/// Index-entry lies, resealed under a valid directory CRC so they reach
/// the structural validators: offsets past EOF, overlapping frames,
/// wrong block counts, lied decoded lengths, duplicate names and an
/// inflated entry count must every one surface as a typed error located
/// at the lying entry — before any frame byte is decoded.
#[test]
fn container_index_lies_are_located() {
    let fix = fixture();
    let fields = entry_field_positions(&fix.image);
    let open_err = |image: Vec<u8>| decode_err(Container::from_bytes(image).unwrap_err());

    // Entry 1's frame offset points past EOF.
    let mut image = fix.image.clone();
    let past_eof = (image.len() as u64).to_le_bytes();
    image[fields[1]..fields[1] + 8].copy_from_slice(&past_eof);
    reseal_directory(&mut image);
    let e = open_err(image);
    assert_eq!(e.kind, DecodeErrorKind::CorruptMetadata);
    assert_eq!(e.tensor, Some(1));

    // Entry 1 claims entry 0's offset: overlapping frames.
    let mut image = fix.image.clone();
    let offset0 = fix.image[fields[0]..fields[0] + 8].to_vec();
    image[fields[1]..fields[1] + 8].copy_from_slice(&offset0);
    reseal_directory(&mut image);
    let e = open_err(image);
    assert_eq!(e.kind, DecodeErrorKind::CorruptMetadata);
    assert!(e.tensor.is_some(), "overlap not located");

    // Block count off by one: the stored frame length no longer matches
    // `header + count × 64`.
    let mut image = fix.image.clone();
    let bc = u32::from_le_bytes(image[fields[0] + 16..fields[0] + 20].try_into().unwrap());
    image[fields[0] + 16..fields[0] + 20].copy_from_slice(&(bc - 1).to_le_bytes());
    reseal_directory(&mut image);
    let e = open_err(image);
    assert_eq!(e.kind, DecodeErrorKind::LengthMismatch);
    assert_eq!(e.tensor, Some(0));

    // Decoded length disagrees with `block_count × group_size`.
    let mut image = fix.image.clone();
    let dl = u64::from_le_bytes(image[fields[0] + 20..fields[0] + 28].try_into().unwrap());
    image[fields[0] + 20..fields[0] + 28].copy_from_slice(&(dl + 1).to_le_bytes());
    reseal_directory(&mut image);
    let e = open_err(image);
    assert_eq!(e.kind, DecodeErrorKind::LengthMismatch);
    assert_eq!(e.tensor, Some(0));

    // Entry 1 renamed to entry 0's (equal-length) name: duplicate key.
    let mut image = fix.image.clone();
    let name_at = |f: usize| f - T0.len()..f;
    let name0 = fix.image[name_at(fields[0])].to_vec();
    image[name_at(fields[1])].copy_from_slice(&name0);
    reseal_directory(&mut image);
    let e = open_err(image);
    assert_eq!(e.kind, DecodeErrorKind::CorruptMetadata);
    assert_eq!(e.tensor, Some(1));

    // Entry count inflated by one: the directory ends mid-"entry 2".
    let mut image = fix.image.clone();
    let f = image.len() - FOOTER_BYTES;
    let index_offset = u64::from_le_bytes(image[f..f + 8].try_into().unwrap()) as usize;
    image[index_offset + 4..index_offset + 8].copy_from_slice(&3u32.to_le_bytes());
    reseal_directory(&mut image);
    let e = open_err(image);
    assert_eq!(e.kind, DecodeErrorKind::TruncatedStream);
    assert_eq!(e.tensor, Some(2));

    // A lying footer pointer (no reseal possible — the pointer is what
    // the CRC region is computed *from*) still refuses cleanly.
    let mut image = fix.image.clone();
    image[f..f + 8].copy_from_slice(&u64::MAX.to_le_bytes());
    assert!(Container::from_bytes(image).is_err());
}

/// Frame corruption is isolated: a bit-flipped frame fails its own slot
/// with a located `ChecksumMismatch` while its neighbour loads
/// bit-identically — one rotten tensor never poisons the container.
#[test]
fn container_frame_corruption_is_isolated() {
    let fix = fixture();
    let pristine = Container::from_bytes(fix.image.clone()).unwrap();
    let frame0 = pristine.entries()[0].clone();

    let mut image = fix.image.clone();
    image[(frame0.offset + frame0.len / 2) as usize] ^= 0x10;
    let container = Container::from_bytes(image).unwrap();

    let e = decode_err(container.read_compressed(T0).unwrap_err());
    assert_eq!(e.kind, DecodeErrorKind::ChecksumMismatch);
    assert_eq!(e.tensor, Some(0));

    let slots = container
        .load_report(&[T0, T1], RecoveryPolicy::SalvageBlocks)
        .unwrap();
    assert!(matches!(
        &slots[0].outcome,
        BatchOutcome::Failed(e) if e.kind == DecodeErrorKind::ChecksumMismatch
    ));
    match &slots[1].outcome {
        BatchOutcome::Ok(values) => {
            assert_eq!(&values[..], fix.codec.decompress(&fix.ct2).data());
        }
        other => panic!("healthy neighbour failed: {other:?}"),
    }
    // Strict load refuses the corrupt tensor but serves the healthy one.
    assert!(container.load(&[T0]).is_err());
    assert!(container.load(&[T1]).is_ok());
}

/// Length-field lies, exhaustively: write an all-ones u32 over every
/// 4-byte window of the metadata snapshot. No panic, no multi-gigabyte
/// allocation, only typed errors (or a still-valid snapshot when the
/// window lands in a don't-care position like a centroid payload).
#[test]
fn metadata_length_field_lies_are_typed() {
    let fix = fixture();
    for off in 0..fix.meta_bytes.len().saturating_sub(4) {
        let mut bytes = fix.meta_bytes.clone();
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        if let Err(e) = decode_metadata(&bytes) {
            assert!(
                matches!(
                    e.kind,
                    DecodeErrorKind::TruncatedStream
                        | DecodeErrorKind::CorruptMetadata
                        | DecodeErrorKind::CorruptCodebook
                        | DecodeErrorKind::LengthMismatch
                ),
                "offset {off}: untyped ingest error {e}"
            );
        }
    }
}

/// Serializes one codebook exactly as an `ECCM` snapshot carries it:
/// `u32 N | N x u8 lengths | N x u16 codes | u8 max_len`.
fn book_bytes(book: &Codebook) -> Vec<u8> {
    let mut out = (book.num_symbols() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(book.lengths());
    for &c in book.codes() {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out.push(book.max_len());
    out
}

/// A crafted block: the `ID_HF` field set to `book_id`, a finite scale
/// factor, `kp` coded under `meta`'s pattern code, and zero data bits.
fn crafted_block(meta: &TensorMetadata, book_id: u64, kp: u16) -> Block64 {
    let mut w = BitWriter::new();
    w.write_bits(book_id, meta.id_hf_bits());
    w.write_bits(0x38, 8);
    meta.pattern_code().encode_symbol(&mut w, kp);
    Block64::from_writer(w).expect("header fits a block")
}

/// The taxonomy audit: every [`DecodeErrorKind`] variant is reachable
/// from a real ingest path — crafted `ECCM`/`ECCT` bytes, crafted blocks,
/// container images and the batch driver. Enumerates
/// [`DecodeErrorKind::ALL`] so adding a variant without a covering
/// corruption fails this test.
#[test]
fn every_decode_error_kind_is_reachable_from_ingest() {
    let fix = fixture();
    let meta = &fix.meta;
    let scale = fix.ct.tensor_scale();
    let block0 = fix.ct.blocks()[0];
    let mut reached: BTreeSet<DecodeErrorKind> = BTreeSet::new();
    let mut reach = |e: DecodeError| {
        reached.insert(e.kind);
    };
    let code_len = book_bytes(meta.pattern_code()).len();
    let tables_end = fix.meta_bytes.len() - code_len;

    // BadPatternId: a snapshot whose pattern code has a symbol beyond the
    // S patterns — legal at ingest (the code names every pattern) — and
    // a block whose ID_KP names that extra symbol.
    let s = meta.num_patterns();
    let wide_code = Codebook::from_frequencies(&vec![1; s + 1], 1, 15).unwrap();
    let mut bytes = fix.meta_bytes[..tables_end].to_vec();
    bytes.extend(book_bytes(&wide_code));
    let wide = decode_metadata(&bytes).expect("a wider pattern code is legal");
    reach(decode_group(&crafted_block(&wide, 0, s as u16), &wide, scale).unwrap_err());

    // BadBookId: a snapshot with H = 3 books per pattern and a 2-bit
    // ID_HF, and a block whose ID_HF names book 3.
    let h = meta.books_per_pattern();
    let mut bytes = fix.meta_bytes[..19].to_vec();
    bytes[7..11].copy_from_slice(&2u32.to_le_bytes());
    let centroids_end = 19 + s * NUM_CENTROIDS * 4;
    bytes.extend_from_slice(&fix.meta_bytes[19..centroids_end]);
    bytes.extend_from_slice(&3u32.to_le_bytes());
    for row in meta.books() {
        for book in [&row[0], &row[h - 1], &row[0]] {
            bytes.extend(book_bytes(book));
        }
    }
    bytes.extend(book_bytes(meta.pattern_code()));
    let three = decode_metadata(&bytes).expect("H = 3 under a 2-bit ID_HF is legal");
    assert_eq!(three.books_per_pattern(), 3);
    reach(decode_group(&crafted_block(&three, 3, 0), &three, scale).unwrap_err());

    // BadScaleFactor: overwrite the SF field with the FP8 E4M3 NaN.
    let mut bytes = *block0.as_bytes();
    set_bits(&mut bytes, meta.id_hf_bits() as usize, 8, 0x7F);
    reach(decode_group(&Block64::from_bytes(bytes), meta, scale).unwrap_err());

    // CorruptMetadata: a pattern code too small to name every pattern,
    // and a flipped magic.
    let narrow_code = Codebook::from_frequencies(&vec![1; s - 1], 1, 15).unwrap();
    let mut bytes = fix.meta_bytes[..tables_end].to_vec();
    bytes.extend(book_bytes(&narrow_code));
    reach(decode_metadata(&bytes).unwrap_err());
    let mut bad_magic = fix.meta_bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(!bad_magic.starts_with(&METADATA_MAGIC));
    reach(decode_metadata(&bad_magic).unwrap_err());

    // CorruptCodebook: a Kraft-violating data book in the snapshot.
    let mut bytes = fix.meta_bytes.clone();
    let lengths0 = centroids_end + 4 + 4;
    bytes[lengths0..lengths0 + 16].fill(1);
    reach(decode_metadata(&bytes).unwrap_err());

    // TruncatedStream: a tensor whose block stream ends a block early.
    let frame = encode_tensor(&fix.ct);
    reach(decode_tensor(&frame[..frame.len() - BLOCK_BYTES]).unwrap_err());
    // A well-formed frame still round-trips through the report API.
    let outcome = fix.codec.decompress_batch_report(
        &[&decode_tensor(&frame).unwrap()],
        RecoveryPolicy::FailTensor,
    );
    assert!(matches!(outcome[0], BatchOutcome::Ok(_)));

    // LengthMismatch: a trailing byte after a well-formed frame.
    let mut trailing = frame.clone();
    trailing.push(0);
    reach(decode_tensor(&trailing).unwrap_err());

    // ChecksumMismatch: a bit-flipped container frame fails its CRC
    // before any decode touches it.
    let mut image = fix.image.clone();
    let frame0 = Container::from_bytes(image.clone()).unwrap().entries()[0].clone();
    image[frame0.offset as usize + 10] ^= 1;
    let corrupt_container = Container::from_bytes(image).unwrap();
    reach(decode_err(
        corrupt_container.read_compressed(T0).unwrap_err(),
    ));

    // WorkerPanic: a panicking decode closure in the batch driver.
    let results = decode_tensors_batch_with(&[fix.ct.blocks()], meta.group_size(), |_, _, _| {
        panic!("injected ingest panic")
    });
    reach(*results[0].as_ref().unwrap_err());

    let missing: Vec<DecodeErrorKind> = DecodeErrorKind::ALL
        .into_iter()
        .filter(|k| !reached.contains(k))
        .collect();
    assert!(
        missing.is_empty(),
        "taxonomy kinds unreachable from ingest tests: {missing:?}"
    );
}
