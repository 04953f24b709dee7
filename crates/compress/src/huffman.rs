//! Canonical Huffman coding of quantization-bin symbols.
//!
//! SZ's speed and ratio come from the fact that after prediction and
//! linear-scaling quantization almost all symbols fall into a handful of
//! bins around zero; Huffman coding then shrinks them to a few bits each.
//! This module implements a length-limited canonical Huffman encoder and a
//! table-driven decoder over `u32` symbols, built for word-at-a-time
//! throughput:
//!
//! * **Encoding** looks codes up in a flat dense vector indexed by
//!   `symbol − min_symbol` (the SZ quantization-code common case; a sorted
//!   slice with binary search backs arbitrary sparse alphabets) — no
//!   `HashMap` in the hot loop — and emits them through the word-buffered
//!   [`BitWriter`].
//! * **Decoding** resolves every code of ≤ [`TABLE_BITS`] bits with a
//!   single table probe ([`BitReader::peek_bits`] + lookup + consume) and
//!   falls back to the canonical first-code/offset method only for the
//!   rare longer codes.
//! * **Frequencies** are counted into a dense `Vec` histogram whenever the
//!   symbol span is small, which it always is for SZ quantization codes.
//!
//! One serialised format exists: the v2 blob (varint count, length-grouped
//! delta-coded table) written by [`encode_block`].

use crate::bitstream::{bytes, BitReader, BitWriter};
use crate::{CompressError, Result};

/// Maximum code length accepted when deserialising a table (the builder
/// itself stops at [`BUILD_MAX_LEN`]).
const MAX_CODE_LEN: u8 = 48;

/// Maximum code length the builder emits.  Codes are length-limited to
/// this depth (Kraft-preserving rebalance) so decoder tables stay small.
const BUILD_MAX_LEN: u8 = 32;

/// Bits resolved per decode-table probe; codes no longer than this decode
/// with a single peek + lookup.
const TABLE_BITS: u8 = 12;

/// Symbol spans up to this size use dense (vector-indexed) code lookup and
/// histogram counting.  65 538 distinct SZ quantization codes fit well
/// below it.
const DENSE_SPAN_MAX: usize = 1 << 17;

/// Symbol → code-book-entry lookup used by the encoder.
#[derive(Debug, Clone)]
enum EncodeIndex {
    /// `slots[sym - min_sym]` is `entry + 1` (0 = absent).
    Dense { min_sym: u32, slots: Vec<u32> },
    /// `(symbol, entry)` sorted by symbol, binary-searched.
    Sparse(Vec<(u32, u32)>),
}

/// A canonical Huffman code book built from symbol frequencies.
#[derive(Debug, Clone)]
struct HuffmanCode {
    /// `(symbol, code length)` sorted canonically by (length, symbol).
    lengths: Vec<(u32, u8)>,
    /// `code << 8 | len` per entry, parallel to `lengths` — one load per
    /// symbol in the encode hot loop.
    packed: Vec<u64>,
    /// Longest code length in the book.
    max_len: u8,
    /// `counts[l]`: number of codes of length `l`.
    counts: Vec<u32>,
    /// Canonical first code of each length.
    first_code: Vec<u64>,
    /// Entry index of the first code of each length.
    first_index: Vec<u32>,
    /// Encoder-side symbol lookup.
    encode_index: EncodeIndex,
}

impl HuffmanCode {
    /// Builds a code book from `(symbol, count)` pairs sorted by symbol
    /// with every count positive.
    ///
    /// # Panics
    /// Panics if `present` is empty.
    fn from_sorted_frequencies(present: &[(u32, u64)]) -> Self {
        assert!(
            !present.is_empty(),
            "Huffman code requires at least one symbol"
        );

        // Special case: a single distinct symbol gets a 1-bit code.
        if present.len() == 1 {
            return Self::assemble(vec![(present[0].0, 1)]);
        }

        // Standard Huffman tree construction over an index-based min-heap
        // (no per-node boxing).  Ties break on node id so construction is
        // deterministic for any thread count.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let n = present.len();
        // children[k] for internal nodes (ids n..2n-1).
        let mut children: Vec<(u32, u32)> = Vec::with_capacity(n - 1);
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = present
            .iter()
            .enumerate()
            .map(|(id, &(_, w))| Reverse((w, id as u32)))
            .collect();
        while heap.len() > 1 {
            let Reverse((wa, a)) = heap.pop().expect("heap non-empty");
            let Reverse((wb, b)) = heap.pop().expect("heap non-empty");
            let id = (n + children.len()) as u32;
            children.push((a, b));
            heap.push(Reverse((wa + wb, id)));
        }
        let Reverse((_, root)) = heap.pop().expect("non-empty tree");

        // Depth of every leaf by iterative traversal.
        let mut depths = vec![0u8; n];
        let mut stack: Vec<(u32, u8)> = vec![(root, 0)];
        let mut max_depth = 0u8;
        while let Some((node, depth)) = stack.pop() {
            if (node as usize) < n {
                let d = depth.max(1);
                depths[node as usize] = d;
                max_depth = max_depth.max(d);
            } else {
                let (a, b) = children[node as usize - n];
                // Depth saturates at 255 to stay well-defined even for
                // pathological weight distributions; the length limiter
                // below rebalances anything deeper than BUILD_MAX_LEN.
                let d = depth.saturating_add(1);
                stack.push((a, d));
                stack.push((b, d));
            }
        }

        let lengths: Vec<(u32, u8)> = if max_depth > BUILD_MAX_LEN {
            Self::limit_lengths(present, &depths)
        } else {
            present
                .iter()
                .zip(depths.iter())
                .map(|(&(sym, _), &d)| (sym, d))
                .collect()
        };
        let mut lengths = lengths;
        lengths.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        Self::assemble(lengths)
    }

    /// Length-limits a too-deep code to [`BUILD_MAX_LEN`] bits: clamp the
    /// overlong lengths, restore the Kraft inequality by splitting shorter
    /// codes (the classic zlib rebalance), then hand the shortest lengths
    /// to the most frequent symbols.
    fn limit_lengths(present: &[(u32, u64)], depths: &[u8]) -> Vec<(u32, u8)> {
        let max = BUILD_MAX_LEN as usize;
        let mut bl_count = vec![0u64; max + 2];
        for &d in depths {
            bl_count[(d as usize).min(max)] += 1;
        }
        // Kraft sum in units of 2^-BUILD_MAX_LEN.
        let kraft = |bl: &[u64]| -> u128 {
            (1..=max).map(|l| (bl[l] as u128) << (max - l)).sum()
        };
        while kraft(&bl_count) > 1u128 << max {
            // Split one code of the deepest non-max length into two and
            // retire one max-length slot.
            let mut bits = max - 1;
            while bl_count[bits] == 0 {
                bits -= 1;
            }
            bl_count[bits] -= 1;
            bl_count[bits + 1] += 2;
            bl_count[max] -= 1;
        }
        // Most frequent symbols take the shortest lengths; ties break on
        // symbol value for determinism.
        let mut by_freq: Vec<(u32, u64)> = present.to_vec();
        by_freq.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mut out = Vec::with_capacity(by_freq.len());
        let mut len = 1usize;
        for (sym, _) in by_freq {
            while bl_count[len] == 0 {
                len += 1;
            }
            bl_count[len] -= 1;
            out.push((sym, len as u8));
        }
        out
    }

    /// Builds the canonical code from canonically sorted `(symbol, length)`
    /// pairs assumed valid (Kraft-satisfying, no duplicate symbols).
    fn assemble(lengths: Vec<(u32, u8)>) -> Self {
        let max_len = lengths.last().map(|&(_, l)| l).unwrap_or(0);
        let mut counts = vec![0u32; max_len as usize + 1];
        for &(_, l) in &lengths {
            counts[l as usize] += 1;
        }
        let mut first_code = vec![0u64; max_len as usize + 1];
        let mut first_index = vec![0u32; max_len as usize + 1];
        let mut packed = Vec::with_capacity(lengths.len());
        let mut code = 0u64;
        let mut index = 0u32;
        for l in 1..=max_len as usize {
            code <<= 1;
            first_code[l] = code;
            first_index[l] = index;
            code += u64::from(counts[l]);
            index += counts[l];
        }
        let mut next = first_code.clone();
        for &(_, l) in &lengths {
            packed.push((next[l as usize] << 8) | u64::from(l));
            next[l as usize] += 1;
        }

        let encode_index = Self::build_encode_index(&lengths);
        HuffmanCode {
            lengths,
            packed,
            max_len,
            counts,
            first_code,
            first_index,
            encode_index,
        }
    }

    fn build_encode_index(lengths: &[(u32, u8)]) -> EncodeIndex {
        let min_sym = lengths.iter().map(|&(s, _)| s).min().unwrap_or(0);
        let max_sym = lengths.iter().map(|&(s, _)| s).max().unwrap_or(0);
        let span = (max_sym - min_sym) as usize + 1;
        if span <= DENSE_SPAN_MAX {
            let mut slots = vec![0u32; span];
            for (entry, &(sym, _)) in lengths.iter().enumerate() {
                slots[(sym - min_sym) as usize] = entry as u32 + 1;
            }
            EncodeIndex::Dense { min_sym, slots }
        } else {
            let mut by_symbol: Vec<(u32, u32)> = lengths
                .iter()
                .enumerate()
                .map(|(entry, &(sym, _))| (sym, entry as u32))
                .collect();
            by_symbol.sort_unstable_by_key(|&(sym, _)| sym);
            EncodeIndex::Sparse(by_symbol)
        }
    }

    /// Validates `(symbol, length)` pairs read from an untrusted stream and
    /// builds the canonical code.
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] for out-of-range lengths,
    /// duplicate symbols, or a Kraft-violating length multiset (which would
    /// make canonical code assignment ambiguous).
    fn from_lengths_checked(mut lengths: Vec<(u32, u8)>) -> Result<Self> {
        if lengths.is_empty() {
            return Err(CompressError::Corrupt("empty Huffman table".into()));
        }
        let mut kraft = 0u128;
        for &(_, len) in &lengths {
            if len == 0 || len > MAX_CODE_LEN {
                return Err(CompressError::Corrupt(format!(
                    "invalid code length {len}"
                )));
            }
            kraft += 1u128 << (MAX_CODE_LEN - len);
        }
        if kraft > 1u128 << MAX_CODE_LEN {
            return Err(CompressError::Corrupt(
                "Huffman table violates the Kraft inequality".into(),
            ));
        }
        let mut symbols: Vec<u32> = lengths.iter().map(|&(s, _)| s).collect();
        symbols.sort_unstable();
        if symbols.windows(2).any(|w| w[0] == w[1]) {
            return Err(CompressError::Corrupt(
                "duplicate symbol in Huffman table".into(),
            ));
        }
        lengths.sort_unstable_by(|a, b| a.1.cmp(&b.1).then(a.0.cmp(&b.0)));
        Ok(Self::assemble(lengths))
    }

    /// Encodes `symbols` into `writer`.
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] if a symbol is absent from the
    /// code book (never happens when the book is built from the same data).
    fn encode(&self, symbols: &[u32], writer: &mut BitWriter) -> Result<()> {
        match &self.encode_index {
            EncodeIndex::Dense { min_sym, slots } => {
                // The hot path: one slot load + one packed-code load per
                // symbol, concatenated into a **local accumulator** that
                // spills through the writer only when it cannot take the
                // next code.  MSB-first concatenation is associative, so
                // flushing `acc_bits` accumulated bits in one
                // `write_bits` call produces the identical byte stream as
                // symbol-at-a-time writes while amortising the writer's
                // shift/flush bookkeeping over dozens of symbols (low-
                // entropy SZ code streams average ~1–2 bits per symbol).
                // Safe whenever every code fits 32 bits (flush keeps
                // `acc_bits ≤ 56`, the writer's fast-path limit), which
                // locally built books guarantee (`BUILD_MAX_LEN = 32`);
                // deserialized books may carry longer codes and take the
                // one-at-a-time path.
                let min_sym = *min_sym;
                let lookup = |s: u32| -> Result<u64> {
                    // Symbols below `min_sym` wrap to a huge index and fall
                    // out of `slots` bounds, taking the error path.
                    let slot = slots
                        .get(s.wrapping_sub(min_sym) as usize)
                        .copied()
                        .unwrap_or(0);
                    if slot == 0 {
                        return Err(Self::missing_symbol(s));
                    }
                    Ok(self.packed[(slot - 1) as usize])
                };
                if self.max_len <= 32 {
                    // Flatten slot -> packed into one table so the per-
                    // symbol lookup is a single load (a zero entry means
                    // the symbol is absent: present codes always have a
                    // non-zero length byte).  The table covers only the
                    // book's symbol range, so building it is cheap next
                    // to the symbol scan it accelerates.
                    let lut: Vec<u64> = slots
                        .iter()
                        .map(|&slot| {
                            if slot == 0 {
                                0
                            } else {
                                self.packed[(slot - 1) as usize]
                            }
                        })
                        .collect();
                    let mut acc: u64 = 0;
                    let mut acc_bits: u32 = 0;
                    for &s in symbols {
                        let pc = lut
                            .get(s.wrapping_sub(min_sym) as usize)
                            .copied()
                            .unwrap_or(0);
                        if pc == 0 {
                            return Err(Self::missing_symbol(s));
                        }
                        let len = (pc & 0xFF) as u32;
                        if acc_bits + len > 56 {
                            writer.write_bits(acc, acc_bits as u8);
                            acc = 0;
                            acc_bits = 0;
                        }
                        acc = (acc << len) | (pc >> 8);
                        acc_bits += len;
                    }
                    if acc_bits > 0 {
                        writer.write_bits(acc, acc_bits as u8);
                    }
                } else {
                    for &s in symbols {
                        let pc = lookup(s)?;
                        writer.write_bits(pc >> 8, (pc & 0xFF) as u8);
                    }
                }
            }
            EncodeIndex::Sparse(by_symbol) => {
                for &s in symbols {
                    let entry = by_symbol
                        .binary_search_by_key(&s, |&(sym, _)| sym)
                        .map_err(|_| Self::missing_symbol(s))?;
                    let pc = self.packed[by_symbol[entry].1 as usize];
                    writer.write_bits(pc >> 8, (pc & 0xFF) as u8);
                }
            }
        }
        Ok(())
    }

    fn missing_symbol(s: u32) -> CompressError {
        CompressError::Corrupt(format!("symbol {s} missing from Huffman code book"))
    }

    /// Decodes `count` symbols from `reader`, appending to `out` (which is
    /// cleared first) so callers can reuse one scratch buffer per thread.
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] if the stream ends early or
    /// contains an invalid code.
    fn decode_into(
        &self,
        reader: &mut BitReader<'_>,
        count: usize,
        out: &mut Vec<u32>,
    ) -> Result<()> {
        out.clear();
        if count == 0 {
            return Ok(());
        }
        // Never trust `count` blindly: every symbol consumes at least one
        // bit, so a count beyond the remaining bits is corrupt — checked
        // before the reserve so corrupt counts cannot trigger huge
        // allocations.
        if count > reader.available_bits() {
            return Err(CompressError::Corrupt(
                "symbol count exceeds bit stream length".into(),
            ));
        }
        out.reserve(count);

        // Multi-bit lookup table: one probe resolves any code of <= `tb`
        // bits to (entry << 8 | len); 0 marks longer codes (and invalid
        // prefixes), handled by the canonical first-code/offset fallback.
        // Entry indices are packed into 24 bits; the (purely theoretical)
        // >16M-symbol book falls back to the first-code search throughout.
        let use_lut = self.lengths.len() < (1 << 24);
        let tb = TABLE_BITS.min(self.max_len);
        let mut lut = vec![0u32; if use_lut { 1usize << tb } else { 0 }];
        if use_lut {
            for (entry, (&(_, len), &pc)) in
                self.lengths.iter().zip(self.packed.iter()).enumerate()
            {
                if len <= tb {
                    let base = ((pc >> 8) << (tb - len)) as usize;
                    let packed = ((entry as u32) << 8) | u32::from(len);
                    for slot in &mut lut[base..base + (1usize << (tb - len))] {
                        *slot = packed;
                    }
                }
            }
        }

        for _ in 0..count {
            if use_lut {
                let probe = reader.peek_bits(tb) as usize;
                let packed = lut[probe];
                if packed != 0 {
                    // `peek_bits` zero-pads past the end of the stream, so
                    // the consume is what detects truncation.
                    reader.consume((packed & 0xFF) as u8)?;
                    out.push(self.lengths[(packed >> 8) as usize].0);
                    continue;
                }
            }
            // Long (or table-excluded) code: canonical first-code search.
            let mut l = if use_lut { tb + 1 } else { 1 };
            loop {
                if l > self.max_len {
                    return Err(CompressError::Corrupt("invalid Huffman code".into()));
                }
                let li = l as usize;
                if self.counts[li] > 0 {
                    let code = reader.peek_bits(l);
                    let offset = code.wrapping_sub(self.first_code[li]);
                    if code >= self.first_code[li] && offset < u64::from(self.counts[li]) {
                        reader.consume(l)?;
                        out.push(
                            self.lengths[self.first_index[li] as usize + offset as usize].0,
                        );
                        break;
                    }
                }
                l += 1;
            }
        }
        Ok(())
    }

    /// Serialises the code book in the compact v2 format: max length, one
    /// varint code count per length, then the symbols in canonical order
    /// (absolute varint for the first symbol of each length group,
    /// delta−1 varints after — symbols ascend within a group).
    fn write_table_v2(&self, buf: &mut Vec<u8>) {
        buf.push(self.max_len);
        for l in 1..=self.max_len as usize {
            bytes::put_varint(buf, u64::from(self.counts[l]));
        }
        let mut prev: Option<(u8, u32)> = None;
        for &(sym, len) in &self.lengths {
            match prev {
                Some((plen, psym)) if plen == len => {
                    bytes::put_varint(buf, u64::from(sym - psym - 1));
                }
                _ => bytes::put_varint(buf, u64::from(sym)),
            }
            prev = Some((len, sym));
        }
    }

    /// Reads a v2 code book previously serialised by
    /// [`HuffmanCode::write_table_v2`].
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] if the table is truncated or
    /// internally inconsistent.
    fn read_table_v2(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let max_len = bytes::get_slice(buf, pos, 1)?[0];
        if max_len == 0 || max_len > MAX_CODE_LEN {
            return Err(CompressError::Corrupt(format!(
                "invalid maximum code length {max_len}"
            )));
        }
        let mut counts = vec![0u64; max_len as usize + 1];
        let mut total = 0u64;
        for c in counts.iter_mut().skip(1) {
            *c = bytes::get_varint(buf, pos)?;
            total = total
                .checked_add(*c)
                .ok_or_else(|| CompressError::Corrupt("Huffman table count overflow".into()))?;
        }
        // Every symbol takes at least one varint byte.
        if total > buf.len().saturating_sub(*pos) as u64 {
            return Err(CompressError::Corrupt(
                "Huffman table count exceeds stream length".into(),
            ));
        }
        let mut lengths = Vec::with_capacity(total as usize);
        for (len, &count) in counts.iter().enumerate().skip(1) {
            let mut prev: Option<u32> = None;
            for _ in 0..count {
                let raw = bytes::get_varint(buf, pos)?;
                let wide = match prev {
                    None => Some(raw),
                    Some(p) => u64::from(p)
                        .checked_add(1)
                        .and_then(|v| v.checked_add(raw)),
                };
                let sym = wide
                    .map(u32::try_from)
                    .ok_or_else(|| CompressError::Corrupt("symbol overflow in table".into()))?
                    .map_err(|_| CompressError::Corrupt("symbol overflow in table".into()))?;
                lengths.push((sym, len as u8));
                prev = Some(sym);
            }
        }
        Self::from_lengths_checked(lengths)
    }
}

/// Counts symbol frequencies and builds a code book: a dense `Vec`
/// histogram when the symbol span is small (the SZ quantization-code common
/// case), a `BTreeMap` otherwise.
fn code_for(symbols: &[u32]) -> HuffmanCode {
    let (mut min, mut max) = (u32::MAX, 0u32);
    for &s in symbols {
        min = min.min(s);
        max = max.max(s);
    }
    let span = (max - min) as usize + 1;
    if span <= DENSE_SPAN_MAX {
        let mut hist = vec![0u64; span];
        for &s in symbols {
            hist[(s - min) as usize] += 1;
        }
        let present: Vec<(u32, u64)> = hist
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (min + i as u32, c))
            .collect();
        HuffmanCode::from_sorted_frequencies(&present)
    } else {
        // BTreeMap so the (symbol, count) pairs come out already sorted
        // by symbol — deterministic without a post-sort.
        let mut freq = std::collections::BTreeMap::new();
        for &s in symbols {
            *freq.entry(s).or_insert(0u64) += 1;
        }
        let present: Vec<(u32, u64)> = freq
            .into_iter()
            .filter(|&(_, c)| c > 0)
            .collect();
        HuffmanCode::from_sorted_frequencies(&present)
    }
}

/// Huffman-encodes a symbol stream into a self-contained v2 byte blob
/// (varint count, compact table, varint bit-stream length, bits), appended
/// to `out`.
pub fn encode_block_into(symbols: &[u32], out: &mut Vec<u8>) {
    bytes::put_varint(out, symbols.len() as u64);
    if symbols.is_empty() {
        return;
    }
    encode_with_code(symbols, code_for(symbols), out);
}

/// [`encode_block_into`] for callers that already counted frequencies into
/// a dense histogram (symbol `i` occurred `hist[i]` times) and tracked the
/// inclusive `lo..=hi` range of symbols they emitted — the SZ quantizer
/// fuses both into its quantization pass.  Only that span of the histogram
/// is scanned, turning the per-block cost from O(histogram len) into
/// O(live span): the quantizer's 65 538-entry scratch histogram typically
/// has a live span of a few dozen codes.  Consumes the histogram: every
/// non-zero entry of the span is zeroed, so a reused scratch histogram
/// comes back all-zero.  `lo > hi` declares the stream empty.  The blob
/// format is identical to [`encode_block_into`]'s.
pub fn encode_block_from_hist_range(
    symbols: &[u32],
    hist: &mut [u32],
    lo: u32,
    hi: u32,
    out: &mut Vec<u8>,
) {
    bytes::put_varint(out, symbols.len() as u64);
    if symbols.is_empty() {
        return;
    }
    let hi = (hi as usize).min(hist.len().saturating_sub(1));
    let mut present: Vec<(u32, u64)> = Vec::new();
    if lo as usize <= hi {
        for (off, count) in hist[lo as usize..=hi].iter_mut().enumerate() {
            if *count > 0 {
                present.push((lo + off as u32, u64::from(*count)));
                *count = 0;
            }
        }
    }
    encode_with_code(symbols, HuffmanCode::from_sorted_frequencies(&present), out);
}

/// Shared tail of the block encoders: table + bit stream.
fn encode_with_code(symbols: &[u32], code: HuffmanCode, out: &mut Vec<u8>) {
    code.write_table_v2(out);
    let mut writer = BitWriter::with_capacity(symbols.len() / 2);
    code.encode(symbols, &mut writer)
        .expect("all symbols are in the book");
    let bits = writer.into_bytes();
    bytes::put_varint(out, bits.len() as u64);
    out.extend_from_slice(&bits);
}

/// Convenience: Huffman-encodes a symbol stream into a self-contained v2
/// byte blob (table + bit stream).
pub fn encode_block(symbols: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_block_into(symbols, &mut out);
    out
}

/// Decodes a v2 blob produced by [`encode_block`], appending the symbols to
/// `out` (cleared first).
///
/// # Errors
/// Returns [`CompressError::Corrupt`] for malformed blobs.
pub fn decode_block_into(buf: &[u8], pos: &mut usize, out: &mut Vec<u32>) -> Result<()> {
    out.clear();
    let count = bytes::get_varint(buf, pos)? as usize;
    if count == 0 {
        return Ok(());
    }
    let code = HuffmanCode::read_table_v2(buf, pos)?;
    let nbytes = bytes::get_varint(buf, pos)? as usize;
    let bits = bytes::get_slice(buf, pos, nbytes)?;
    let mut reader = BitReader::new(bits);
    code.decode_into(&mut reader, count, out)
}

/// Decodes a v2 blob produced by [`encode_block`].
///
/// # Errors
/// Returns [`CompressError::Corrupt`] for malformed blobs.
pub fn decode_block(buf: &[u8], pos: &mut usize) -> Result<Vec<u32>> {
    let mut out = Vec::new();
    decode_block_into(buf, pos, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(symbols: &[u32]) {
        let blob = encode_block(symbols);
        let mut pos = 0;
        let back = decode_block(&blob, &mut pos).unwrap();
        assert_eq!(back, symbols);
        assert_eq!(pos, blob.len());
    }

    #[test]
    fn empty_stream() {
        roundtrip(&[]);
    }

    #[test]
    fn single_symbol_repeated() {
        roundtrip(&[7u32; 100]);
    }

    #[test]
    fn two_symbols() {
        roundtrip(&[1, 2, 1, 1, 2, 1, 1, 1]);
    }

    #[test]
    fn skewed_distribution_compresses_well() {
        // 95% of symbols identical — typical of SZ quantization bins on a
        // smooth vector.
        let mut symbols = vec![1000u32; 9500];
        symbols.extend((0..500).map(|i| 990 + (i % 21) as u32));
        let blob = encode_block(&symbols);
        // 10k symbols compressed well below 2 bytes each.
        assert!(blob.len() < 10_000);
        roundtrip(&symbols);
    }

    #[test]
    fn uniform_distribution_roundtrips() {
        let symbols: Vec<u32> = (0..4096u32).map(|i| i % 257).collect();
        roundtrip(&symbols);
    }

    #[test]
    fn wide_symbol_values() {
        // Spans the full u32 range, exercising the sparse encode index.
        let symbols = vec![0u32, u32::MAX, 5, u32::MAX, 0, 123456789];
        roundtrip(&symbols);
    }

    #[test]
    fn long_codes_take_the_table_fallback() {
        // An exponential frequency distribution forces code lengths past
        // TABLE_BITS, exercising the first-code/offset fallback path.
        let mut symbols = Vec::new();
        for s in 0..24u32 {
            let reps = 1usize << (24 - s).min(16);
            symbols.extend(std::iter::repeat_n(s, reps));
        }
        roundtrip(&symbols);
    }

    #[test]
    fn pathological_depths_are_length_limited() {
        // Fibonacci weights build the deepest possible Huffman tree; with
        // ~50 symbols the unlimited tree would exceed BUILD_MAX_LEN.
        let mut freq = Vec::new();
        let (mut a, mut b) = (1u64, 1u64);
        for s in 0..50u32 {
            freq.push((s, a));
            let next = a.saturating_add(b);
            a = b;
            b = next;
        }
        let code = HuffmanCode::from_sorted_frequencies(&freq);
        assert!(code.max_len <= BUILD_MAX_LEN);
        assert_eq!(code.lengths.len(), 50);

        // And the limited code still round-trips.
        let symbols: Vec<u32> = (0..50u32).flat_map(|s| std::iter::repeat_n(s, 3)).collect();
        let mut w = BitWriter::new();
        code.encode(&symbols, &mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut decoded = Vec::new();
        code.decode_into(&mut r, symbols.len(), &mut decoded).unwrap();
        assert_eq!(decoded, symbols);
    }

    #[test]
    fn deterministic_encoding() {
        let symbols: Vec<u32> = (0..1000u32).map(|i| (i * i) % 37).collect();
        assert_eq!(encode_block(&symbols), encode_block(&symbols));
    }

    #[test]
    fn corrupt_blobs_detected() {
        let blob = encode_block(&[1, 2, 3, 4, 5, 1, 1, 1]);
        for cut in 0..blob.len() {
            let mut pos = 0;
            let res = decode_block(&blob[..cut], &mut pos);
            assert!(res.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupt_counts_do_not_overallocate() {
        // A blob whose count field claims 2^60 symbols must fail fast
        // (before any proportional allocation), not OOM.
        let mut blob = Vec::new();
        bytes::put_varint(&mut blob, 1u64 << 60);
        blob.extend_from_slice(&[1, 1, 0, 1, 0xAA]);
        let mut pos = 0;
        assert!(decode_block(&blob, &mut pos).is_err());
    }

    #[test]
    fn overflowing_v2_count_fields_rejected() {
        // counts[1] = u64::MAX, counts[2] = 1: the total must not wrap
        // past the stream-length guard (or panic in debug builds).
        let mut buf = vec![2u8];
        bytes::put_varint(&mut buf, u64::MAX);
        bytes::put_varint(&mut buf, 1);
        buf.extend_from_slice(&[0u8; 8]);
        let mut pos = 0;
        assert!(HuffmanCode::read_table_v2(&buf, &mut pos).is_err());
    }

    #[test]
    fn kraft_violating_table_rejected() {
        // Three 1-bit codes cannot coexist: max_len 1, three codes of
        // length 1, symbols 0, 1, 2 (absolute, then delta−1).
        let buf = [1u8, 3, 0, 0, 0];
        let mut pos = 0;
        assert!(HuffmanCode::read_table_v2(&buf, &mut pos).is_err());
    }

    #[test]
    fn duplicate_symbol_table_rejected() {
        // Symbols ascend strictly within a length group, so a duplicate
        // can only sit in two groups: symbol 7 at length 1 and length 2.
        let buf = [2u8, 1, 1, 7, 7];
        let mut pos = 0;
        assert!(HuffmanCode::read_table_v2(&buf, &mut pos).is_err());
    }

    #[test]
    fn table_roundtrip() {
        let code = HuffmanCode::from_sorted_frequencies(&[(10, 5), (20, 1), (30, 1)]);
        assert_eq!(code.lengths.len(), 3);
        let mut buf = Vec::new();
        code.write_table_v2(&mut buf);
        let mut pos = 0;
        let code2 = HuffmanCode::read_table_v2(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(code2.lengths.len(), 3);

        let mut w = BitWriter::new();
        code.encode(&[10, 20, 30, 10], &mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        let mut decoded = Vec::new();
        code2.decode_into(&mut r, 4, &mut decoded).unwrap();
        assert_eq!(decoded, vec![10, 20, 30, 10]);
    }

    #[test]
    fn missing_symbol_rejected_on_encode() {
        let code = HuffmanCode::from_sorted_frequencies(&[(1, 10), (2, 10)]);
        let mut w = BitWriter::new();
        assert!(code.encode(&[3], &mut w).is_err());
        assert!(code.encode(&[0], &mut w).is_err());
    }
}
