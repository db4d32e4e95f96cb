//! Length-limited canonical Huffman codes.
//!
//! Ecco constrains its data codes to 2..=8 bits (so each of the 64 parallel
//! decoder segments, which owns 8 bits, decodes between one and four whole
//! symbols) and its pattern-id code to at most 15 bits. Optimal lengths
//! under a cap are produced by the **package-merge** algorithm
//! (Larmore & Hirschberg, 1990); codes are then assigned canonically so a
//! codebook is fully described by its length vector.

use std::fmt;

use ecco_bits::{BitReader, BitWriter};

/// Errors from codebook construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodebookError {
    /// No symbols were supplied.
    Empty,
    /// More symbols than `2^max_len` cannot all receive codes.
    TooManySymbols {
        /// Number of symbols requested.
        symbols: usize,
        /// The maximum code length that made this impossible.
        max_len: u8,
    },
    /// `min_len > max_len` or `max_len > 15`.
    BadLengthBounds {
        /// Requested minimum code length.
        min_len: u8,
        /// Requested maximum code length.
        max_len: u8,
    },
    /// A supplied length vector violates the Kraft inequality.
    KraftViolation,
    /// Serialized codes or `max_len` differ from the canonical code the
    /// serialized lengths determine.
    InconsistentParts,
}

impl fmt::Display for CodebookError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodebookError::Empty => write!(f, "codebook needs at least one symbol"),
            CodebookError::TooManySymbols { symbols, max_len } => write!(
                f,
                "{symbols} symbols cannot be coded with max length {max_len}"
            ),
            CodebookError::BadLengthBounds { min_len, max_len } => {
                write!(f, "invalid length bounds [{min_len}, {max_len}]")
            }
            CodebookError::KraftViolation => write!(f, "lengths violate the Kraft inequality"),
            CodebookError::InconsistentParts => {
                write!(f, "codes or max length disagree with the canonical code")
            }
        }
    }
}

impl std::error::Error for CodebookError {}

/// Optimal code lengths under a maximum length, via package-merge.
///
/// Zero weights are treated as weight 1 so every symbol stays encodable
/// (any index can appear in a group at run time even if the calibration set
/// never produced it).
fn package_merge(weights: &[u64], max_len: u8) -> Vec<u8> {
    let n = weights.len();
    debug_assert!(n >= 1 && n <= (1usize << max_len));
    if n == 1 {
        return vec![1];
    }

    let adjusted: Vec<u64> = weights.iter().map(|&w| w.max(1)).collect();
    let mut singletons: Vec<(u64, Vec<u16>)> =
        (0..n).map(|i| (adjusted[i], vec![i as u16])).collect();
    singletons.sort_by_key(|p| p.0);

    let mut packages = singletons.clone();
    for _ in 1..max_len {
        // Pair adjacent packages; an unpaired trailing package is dropped.
        let mut merged: Vec<(u64, Vec<u16>)> = Vec::with_capacity(packages.len() / 2);
        for pair in packages.chunks_exact(2) {
            let mut items = pair[0].1.clone();
            items.extend_from_slice(&pair[1].1);
            merged.push((pair[0].0 + pair[1].0, items));
        }
        // Merge the new packages with the singletons, keeping weight order.
        let mut next = Vec::with_capacity(merged.len() + n);
        let (mut i, mut j) = (0, 0);
        while i < singletons.len() || j < merged.len() {
            let take_single =
                j >= merged.len() || (i < singletons.len() && singletons[i].0 <= merged[j].0);
            if take_single {
                next.push(singletons[i].clone());
                i += 1;
            } else {
                next.push(std::mem::take(&mut merged[j]));
                j += 1;
            }
        }
        packages = next;
    }

    // The first 2n-2 packages of the final list define the code lengths.
    let mut lengths = vec![0u8; n];
    for (_, items) in packages.iter().take(2 * n - 2) {
        for &it in items {
            lengths[it as usize] += 1;
        }
    }
    lengths
}

/// The full `(symbol, length)` decode table over `max_len`-bit windows,
/// with length 0 marking an invalid prefix.
fn build_decode_lut(lengths: &[u8], codes: &[u16], max_len: u8) -> Vec<(u16, u8)> {
    let mut lut = vec![(0u16, 0u8); 1 << max_len];
    for (sym, (&len, &c)) in lengths.iter().zip(codes).enumerate() {
        let shift = (max_len - len) as u32;
        let base = (c as usize) << shift;
        for fill in 0..(1usize << shift) {
            lut[base + fill] = (sym as u16, len);
        }
    }
    lut
}

/// A canonical prefix codebook over symbols `0..num_symbols`.
///
/// Codes are MSB-first; decoding uses a full lookup table over `max_len`
/// bits, the software analogue of the paper's sub-decoder combinational
/// logic. Every constructor validates its input and builds the decode
/// table, so a `Codebook` value is always a coherent canonical code.
///
/// # Examples
///
/// ```
/// use ecco_entropy::Codebook;
///
/// let book = Codebook::from_frequencies(&[10, 5, 2, 1], 1, 4).unwrap();
/// assert!(book.code_len(0) <= book.code_len(3));
/// assert!(book.kraft_sum() <= 1.0 + 1e-12);
/// ```
#[derive(Clone)]
pub struct Codebook {
    lengths: Vec<u8>,
    codes: Vec<u16>,
    max_len: u8,
    /// Lookup table indexed by a `max_len`-bit window: `(symbol, length)`,
    /// with length 0 marking an invalid prefix.
    lut: Vec<(u16, u8)>,
}

impl PartialEq for Codebook {
    fn eq(&self, other: &Codebook) -> bool {
        // Canonical codes are fully determined by the length vector; the
        // decode table is derived and excluded on purpose.
        self.lengths == other.lengths
    }
}

impl Eq for Codebook {}

impl Codebook {
    /// Builds an optimal canonical code for `freqs` with code lengths in
    /// `min_len..=max_len`.
    ///
    /// Lengths come from package-merge (optimal under `max_len`); symbols
    /// that would get shorter codes than `min_len` are lengthened, which
    /// keeps the code prefix-free (the Kraft sum only decreases).
    ///
    /// # Errors
    ///
    /// Returns an error for an empty alphabet, impossible bounds, or more
    /// symbols than `2^max_len`.
    pub fn from_frequencies(
        freqs: &[u64],
        min_len: u8,
        max_len: u8,
    ) -> Result<Codebook, CodebookError> {
        if freqs.is_empty() {
            return Err(CodebookError::Empty);
        }
        if min_len > max_len || max_len > 15 || min_len == 0 {
            return Err(CodebookError::BadLengthBounds { min_len, max_len });
        }
        if freqs.len() > (1usize << max_len) {
            return Err(CodebookError::TooManySymbols {
                symbols: freqs.len(),
                max_len,
            });
        }
        let mut lengths = package_merge(freqs, max_len);
        for l in &mut lengths {
            *l = (*l).max(min_len);
        }
        Codebook::from_lengths(&lengths)
    }

    /// Builds a canonical codebook from explicit per-symbol code lengths.
    ///
    /// # Errors
    ///
    /// Returns [`CodebookError::KraftViolation`] if `Σ 2^-len > 1`, or
    /// bounds errors for zero/oversized lengths.
    pub fn from_lengths(lengths: &[u8]) -> Result<Codebook, CodebookError> {
        if lengths.is_empty() {
            return Err(CodebookError::Empty);
        }
        let max_len = *lengths.iter().max().expect("non-empty");
        if max_len == 0 || max_len > 15 {
            return Err(CodebookError::BadLengthBounds {
                min_len: 0,
                max_len,
            });
        }
        let kraft: u64 = lengths.iter().map(|&l| 1u64 << (max_len - l) as u32).sum();
        if kraft > 1u64 << max_len {
            return Err(CodebookError::KraftViolation);
        }

        // Canonical assignment: symbols sorted by (length, index).
        let mut order: Vec<usize> = (0..lengths.len()).collect();
        order.sort_by_key(|&i| (lengths[i], i));
        let mut codes = vec![0u16; lengths.len()];
        let mut code = 0u32;
        let mut prev_len = 0u8;
        for &sym in &order {
            let len = lengths[sym];
            code <<= (len - prev_len) as u32;
            codes[sym] = code as u16;
            code += 1;
            prev_len = len;
        }

        Ok(Codebook {
            lut: build_decode_lut(lengths, &codes, max_len),
            lengths: lengths.to_vec(),
            codes,
            max_len,
        })
    }

    /// Rebuilds a codebook from the three fields wire formats carry —
    /// the revival entry point for books read from untrusted bytes.
    ///
    /// # Errors
    ///
    /// Every [`Codebook::from_lengths`] error, plus
    /// [`CodebookError::InconsistentParts`] when `codes` or `max_len`
    /// differ from what the lengths determine: the encoder writes the
    /// stored codes while the decoder reads through the table built from
    /// the lengths, so a book whose parts disagree would silently encode
    /// one code and decode another.
    pub fn from_serialized_parts(
        lengths: &[u8],
        codes: &[u16],
        max_len: u8,
    ) -> Result<Codebook, CodebookError> {
        let book = Codebook::from_lengths(lengths)?;
        if book.max_len != max_len || book.codes != codes {
            return Err(CodebookError::InconsistentParts);
        }
        Ok(book)
    }

    /// Number of symbols in the alphabet.
    pub fn num_symbols(&self) -> usize {
        self.lengths.len()
    }

    /// Code length in bits for `sym`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is out of range.
    #[inline]
    pub fn code_len(&self, sym: u16) -> u8 {
        self.lengths[sym as usize]
    }

    /// The longest code length in this book.
    pub fn max_len(&self) -> u8 {
        self.max_len
    }

    /// The per-symbol length vector (canonical codes are fully determined
    /// by it).
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// The canonical code value for `sym` (MSB-first, `code_len` bits).
    #[inline]
    pub fn code(&self, sym: u16) -> u16 {
        self.codes[sym as usize]
    }

    /// The per-symbol canonical code vector, aligned with
    /// [`Codebook::lengths`] — the third serialized field wire formats
    /// carry alongside the lengths and `max_len`.
    pub fn codes(&self) -> &[u16] {
        &self.codes
    }

    /// Total encoded length in bits of a symbol sequence.
    pub fn encoded_len(&self, symbols: &[u16]) -> usize {
        symbols
            .iter()
            .map(|&s| self.lengths[s as usize] as usize)
            .sum()
    }

    /// Appends the code for `sym` to `writer`.
    ///
    /// # Panics
    ///
    /// Panics if `sym` is out of range.
    #[inline]
    pub fn encode_symbol(&self, writer: &mut BitWriter, sym: u16) {
        let len = self.lengths[sym as usize];
        writer.write_bits(self.codes[sym as usize] as u64, len as u32);
    }

    /// Decodes one symbol from `reader`, advancing past its code.
    ///
    /// Returns `None` when the remaining bits cannot hold a valid code —
    /// the condition the codec uses to detect a clipped stream.
    pub fn decode_symbol(&self, reader: &mut BitReader<'_>) -> Option<u16> {
        self.symbol_decoder().decode_symbol(reader)
    }

    /// Decodes one symbol from a `max_len`-bit window value (the hardware
    /// sub-decoder primitive). Returns `(symbol, code_len)` or `None` for
    /// an invalid prefix.
    pub fn decode_window(&self, window: u64) -> Option<(u16, u8)> {
        self.symbol_decoder().decode_window(window)
    }

    /// A borrowed view of the decode table for per-symbol loops.
    pub fn symbol_decoder(&self) -> SymbolDecoder<'_> {
        SymbolDecoder {
            lut: &self.lut,
            max_len: self.max_len,
        }
    }

    /// The Kraft sum `Σ 2^-len` (≤ 1 for any prefix-free code).
    pub fn kraft_sum(&self) -> f64 {
        self.lengths.iter().map(|&l| 2f64.powi(-(l as i32))).sum()
    }

    /// Expected code length in bits under the frequency vector `freqs`.
    pub fn expected_len(&self, freqs: &[u64]) -> f64 {
        let total: u64 = freqs.iter().sum();
        if total == 0 {
            return 0.0;
        }
        freqs
            .iter()
            .zip(&self.lengths)
            .map(|(&f, &l)| f as f64 * l as f64)
            .sum::<f64>()
            / total as f64
    }
}

/// A per-symbol decoder over one codebook's decode table — created by
/// [`Codebook::symbol_decoder`].
#[derive(Clone, Copy, Debug)]
pub struct SymbolDecoder<'a> {
    lut: &'a [(u16, u8)],
    max_len: u8,
}

impl SymbolDecoder<'_> {
    /// Decodes one symbol from `reader`, advancing past its code —
    /// see [`Codebook::decode_symbol`].
    #[inline]
    pub fn decode_symbol(&self, reader: &mut BitReader<'_>) -> Option<u16> {
        let window = reader.peek_bits_padded(self.max_len as u32) as usize;
        let (sym, len) = self.lut[window];
        if len == 0 || (len as usize) > reader.remaining() {
            return None;
        }
        reader.seek(reader.bit_pos() + len as usize);
        Some(sym)
    }

    /// Decodes one symbol from a `max_len`-bit window value — see
    /// [`Codebook::decode_window`].
    #[inline]
    pub fn decode_window(&self, window: u64) -> Option<(u16, u8)> {
        let idx = (window & ((1u64 << self.max_len) - 1)) as usize;
        let (sym, len) = self.lut[idx];
        if len == 0 {
            None
        } else {
            Some((sym, len))
        }
    }
}

impl fmt::Debug for Codebook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Codebook({} symbols, lengths {:?})",
            self.lengths.len(),
            self.lengths
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::shannon_entropy;
    use proptest::prelude::*;

    #[test]
    fn serialized_parts_revive_only_the_canonical_code() {
        let freqs = [400u64, 210, 96, 60, 31, 17, 9, 5, 3, 2, 1, 1, 1, 1, 1, 30];
        let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
        let revived =
            Codebook::from_serialized_parts(book.lengths(), book.codes(), book.max_len()).unwrap();
        assert_eq!(revived.codes(), book.codes());
        for window in 0..(1u64 << book.max_len()) {
            assert_eq!(revived.decode_window(window), book.decode_window(window));
        }

        // Codes that are not the canonical assignment of the lengths: the
        // encoder would write them while the decoder reads canonical ones.
        let mut swapped = book.codes().to_vec();
        let (a, b) = (0..16)
            .flat_map(|a| (a + 1..16).map(move |b| (a, b)))
            .find(|&(a, b)| book.lengths()[a] == book.lengths()[b])
            .expect("two equal-length symbols");
        swapped.swap(a, b);
        for codes in [swapped, vec![0xFFFF; 16]] {
            assert_eq!(
                Codebook::from_serialized_parts(book.lengths(), &codes, book.max_len()),
                Err(CodebookError::InconsistentParts)
            );
        }
        // A max_len that disagrees with the lengths, including values past
        // the 15-bit cap.
        for bad in [book.max_len() + 1, 20, 200] {
            assert_eq!(
                Codebook::from_serialized_parts(book.lengths(), book.codes(), bad),
                Err(CodebookError::InconsistentParts)
            );
        }
        // Kraft-violating and zero lengths.
        assert_eq!(
            Codebook::from_serialized_parts(&[1, 1, 1], &[0, 1, 2], 1),
            Err(CodebookError::KraftViolation)
        );
        assert!(Codebook::from_serialized_parts(&[0; 16], &[0; 16], 8).is_err());
    }

    #[test]
    fn lengths_ordered_by_frequency() {
        let freqs = [100u64, 50, 20, 5, 1];
        let book = Codebook::from_frequencies(&freqs, 1, 8).unwrap();
        for w in 0..freqs.len() - 1 {
            assert!(
                book.code_len(w as u16) <= book.code_len((w + 1) as u16),
                "more frequent symbols must not get longer codes"
            );
        }
    }

    #[test]
    fn respects_min_and_max_length() {
        // Extremely skewed: unconstrained Huffman would give a 1-bit code.
        let freqs = [1_000_000u64, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
        for s in 0..16 {
            let l = book.code_len(s);
            assert!((2..=8).contains(&l), "symbol {s} got length {l}");
        }
    }

    #[test]
    fn sixteen_symbols_fit_in_four_bits() {
        let freqs = [1u64; 16];
        let book = Codebook::from_frequencies(&freqs, 2, 4).unwrap();
        assert!(book.lengths().iter().all(|&l| l == 4));
    }

    #[test]
    fn kraft_holds() {
        let freqs = [7u64, 6, 5, 4, 3, 2, 1, 1, 9, 22, 3, 1, 1, 5, 8, 100];
        let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
        assert!(book.kraft_sum() <= 1.0 + 1e-12);
    }

    #[test]
    fn package_merge_is_optimal_for_known_case() {
        // Classic example: weights 1,1,2,3,5 with max 3 bits.
        let lengths = package_merge(&[1, 1, 2, 3, 5], 3);
        let cost: u64 = [1u64, 1, 2, 3, 5]
            .iter()
            .zip(&lengths)
            .map(|(&w, &l)| w * l as u64)
            .sum();
        // Optimal length-3-limited cost for these weights is 26
        // (lengths [3,3,2,2,2]; the unconstrained optimum is 25).
        assert_eq!(cost, 26, "lengths {lengths:?}");
        assert!(lengths.iter().all(|&l| l <= 3));
    }

    #[test]
    fn expected_length_close_to_entropy() {
        let freqs = [400u64, 200, 100, 50, 25, 12, 6, 3, 2, 1, 1, 1, 1, 1, 1, 30];
        let book = Codebook::from_frequencies(&freqs, 1, 15).unwrap();
        let h = shannon_entropy(&freqs);
        let el = book.expected_len(&freqs);
        assert!(el >= h - 1e-9, "expected length below entropy: {el} < {h}");
        assert!(
            el <= h + 1.0,
            "Huffman within 1 bit of entropy: {el} vs {h}"
        );
    }

    #[test]
    fn error_cases() {
        assert_eq!(
            Codebook::from_frequencies(&[], 2, 8),
            Err(CodebookError::Empty)
        );
        assert!(matches!(
            Codebook::from_frequencies(&[1; 64], 2, 5),
            Err(CodebookError::TooManySymbols { .. })
        ));
        assert!(matches!(
            Codebook::from_frequencies(&[1, 1], 9, 8),
            Err(CodebookError::BadLengthBounds { .. })
        ));
        // Three 1-bit codes violate Kraft.
        assert_eq!(
            Codebook::from_lengths(&[1, 1, 1]),
            Err(CodebookError::KraftViolation)
        );
    }

    #[test]
    fn decode_detects_truncation() {
        let freqs = [10u64, 1, 1, 1];
        let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
        let mut w = BitWriter::new();
        book.encode_symbol(&mut w, 3);
        let bytes = w.into_bytes();
        // Chop the stream to a single bit: decode must fail, not panic.
        let mut r = BitReader::with_limit(&bytes, 1);
        assert_eq!(book.decode_symbol(&mut r), None);
    }

    proptest! {
        #[test]
        fn roundtrip_random_streams(
            freqs in prop::collection::vec(0u64..1000, 2..=16),
            syms in prop::collection::vec(0u16..16, 0..200),
        ) {
            let n = freqs.len() as u16;
            let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
            let symbols: Vec<u16> = syms.iter().map(|&s| s % n).collect();
            let mut w = BitWriter::new();
            for &s in &symbols {
                book.encode_symbol(&mut w, s);
            }
            prop_assert_eq!(w.bit_len(), book.encoded_len(&symbols));
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &s in &symbols {
                prop_assert_eq!(book.decode_symbol(&mut r), Some(s));
            }
        }

        #[test]
        fn codes_are_prefix_free(freqs in prop::collection::vec(0u64..100_000, 2..=16)) {
            let book = Codebook::from_frequencies(&freqs, 2, 8).unwrap();
            let n = book.num_symbols();
            for a in 0..n {
                for b in 0..n {
                    if a == b { continue; }
                    let (la, lb) = (book.code_len(a as u16), book.code_len(b as u16));
                    if la <= lb {
                        let prefix = book.code(b as u16) >> (lb - la) as u32;
                        prop_assert!(
                            prefix != book.code(a as u16),
                            "code {a} is a prefix of {b}"
                        );
                    }
                }
            }
        }

        #[test]
        fn pattern_id_code_max15(freqs in prop::collection::vec(0u64..1000, 2..=64)) {
            // The ID_KP field uses 1..=15-bit codes over up to 64 patterns.
            let book = Codebook::from_frequencies(&freqs, 1, 15).unwrap();
            prop_assert!(book.lengths().iter().all(|&l| (1..=15).contains(&l)));
            prop_assert!(book.kraft_sum() <= 1.0 + 1e-12);
        }
    }
}
