//! Canonical Huffman coding of quantization-bin symbols.
//!
//! SZ's speed and ratio come from the fact that after prediction and
//! linear-scaling quantization almost all symbols fall into a handful of
//! bins around zero; Huffman coding then shrinks them to a few bits each.
//! This module implements a canonical Huffman encoder and a table-driven
//! decoder over the symbols SZ writes, built for word-at-a-time throughput.
//!
//! Its one alphabet is `0..`[`DENSE_SPAN_MAX`] (2^19), which holds every
//! quantization code (at most 65,537).  Its one code-length limit is [`MAX_CODE_LEN`] = 32
//! bits, for writer and reader alike, and it holds by construction, not by
//! a limiter: a tree with a leaf at depth 33 needs at least F(35) =
//! 9,227,465 symbols (the Fibonacci bound), so a blob of one `PAR_BLOCK`
//! (at most 65,536 symbols) is at most 22 levels deep.
//!
//! * **Encoding** is two steps.  [`Plan::of_tallies`] turns the histogram
//!   of a blob's symbols — [`Tally`]s taken where the symbols are made, one
//!   per stretch — into code lengths and the blob's **exact** size without
//!   packing a bit, so a caller places every block before writing any;
//!   [`Plan::emit`] then packs the
//!   symbols 64 bits at a time straight into the destination through one
//!   symbol → packed-code table.  A [`Packer`] packs any stretch of the
//!   stream from its own first bit into the bytes that stretch's bits land
//!   in, so the stretches of one blob pack on the pool.  Every cost follows
//!   the number of *present* symbols, never the symbol span.
//! * **Decoding** resolves every code of ≤ [`TABLE_BITS`] bits with a
//!   single table probe ([`BitReader::peek_bits`] + lookup + consume) and
//!   falls back to the canonical first-code/offset method only for the
//!   rare longer codes.  It accepts only what the encoder writes: a table
//!   naming a symbol of 2^19 or more, or a code longer than 32 bits, is
//!   [`CompressError::Corrupt`].
//!
//! One serialised format exists: the v2 blob (varint count, length-grouped
//! delta-coded table) written by [`encode_block`].

use crate::bitstream::{bytes, BitReader};
use crate::{CompressError, Result};
use std::cell::RefCell;
use std::ops::Range;

/// Longest code the builder emits and the reader accepts.  No SZ blob
/// comes near it (see the module docs), and it lets the packer take any
/// code in half a word.
const MAX_CODE_LEN: u8 = 32;

/// Bits resolved per decode-table probe; codes no longer than this decode
/// with a single peek + lookup.
const TABLE_BITS: u8 = 12;

/// The alphabet is `0..DENSE_SPAN_MAX`: every symbol is counted and looked
/// up in dense per-thread tables.
const DENSE_SPAN_MAX: usize = 1 << 19;

/// Width of the window of symbols around a stream's expected mode that is
/// counted in four interleaved lanes (see [`Tally`]).
const NEAR: usize = 1024;

/// The per-thread dense symbol table, grown (by [`cover`]) to the largest
/// symbol the thread has met and kept **all-zero between calls**: each user
/// clears exactly the entries it set, so set-up and tear-down cost follow
/// the number of present symbols, not the table size.  One table serves
/// both passes, which never overlap on a thread: while planning, an entry
/// is the symbol's occurrence count (symbols outside the near window);
/// while emitting, its 1-based position in the blob's code list.
/// The plan's other working arrays live beside it, so planning a blob of
/// an alphabet the thread has met before allocates only the plan itself.
struct Scratch {
    table: Vec<u32>,
    /// Symbols whose entry left zero during the current count.
    touched: Vec<u32>,
    /// The `(symbol, count)` pairs of the blob being planned.
    present: Vec<(u32, u64)>,
    /// [`code_depths`]' tree.
    tree: Tree,
}

/// The working arrays of [`code_depths`], reused across calls.
#[derive(Default)]
struct Tree {
    /// `(weight, leaf id)`, sorted.
    leaves: Vec<(u64, u32)>,
    /// Each node's parent id.
    parent: Vec<u32>,
    /// Internal-node weights, in creation order.
    internal: Vec<u64>,
    /// Each node's depth; the leaves' come first.
    depth: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const {
        RefCell::new(Scratch {
            table: Vec::new(),
            touched: Vec::new(),
            present: Vec::new(),
            tree: Tree {
                leaves: Vec::new(),
                parent: Vec::new(),
                internal: Vec::new(),
                depth: Vec::new(),
            },
        })
    };
}

/// Grows the dense table to hold `index`, in powers of two (short-lived
/// threads, such as a shard's, should not pay for alphabets they never
/// see).
///
/// # Panics
/// Panics if `index` is not in the alphabet `0..DENSE_SPAN_MAX`.
fn cover(table: &mut Vec<u32>, index: usize) {
    if index >= table.len() {
        assert!(index < DENSE_SPAN_MAX, "symbol {index} is beyond the 2^19 alphabet");
        table.resize((index + 1).next_power_of_two(), 0);
    }
}

/// The histogram of one stretch of a symbol stream, taken where the
/// symbols are made (a pool chunk of quantization codes), so that a blob's
/// plan sums its chunks' tallies instead of counting its symbols again.
///
/// Runs of one symbol — the common case on smooth data, where one or two
/// bins dominate — would serialise a single histogram behind the
/// store-to-load dependency of `hist[s] += 1`.  The [`NEAR`] symbols around
/// the `center` the caller names (where it expects the mode: the zero bin
/// for quantization codes) are therefore counted in four interleaved lanes
/// on the stack; every other symbol is kept as it comes and counted once
/// per blob by [`Plan::of_tallies`].  A tally reused across calls keeps
/// its capacity, so a steady stream of encodes allocates nothing here.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Occurrences of each symbol of the near window, from its base.
    near: Vec<u32>,
    /// The symbols outside the near window, in stream order.
    far: Vec<u32>,
}

/// First symbol of the near window around `center`.
fn near_base(center: u32) -> u32 {
    center.saturating_sub(NEAR as u32 / 2)
}

impl Tally {
    /// Replaces the tally with the histogram of `symbols` (at most
    /// `u32::MAX` of them), its near window around `center`.
    pub(crate) fn count(&mut self, symbols: &[u32], center: u32) {
        let base = near_base(center);
        let mut lanes = [0u32; NEAR * 4];
        let far = &mut self.far;
        far.clear();
        let mut tally = |sym: u32, lane: usize| {
            let k = sym.wrapping_sub(base) as usize;
            if k < NEAR {
                lanes[k * 4 + lane] += 1;
            } else {
                far.push(sym);
            }
        };
        let mut chunks = symbols.chunks_exact(4);
        for c in &mut chunks {
            tally(c[0], 0);
            tally(c[1], 1);
            tally(c[2], 2);
            tally(c[3], 3);
        }
        for &sym in chunks.remainder() {
            tally(sym, 0);
        }
        self.near.clear();
        self.near
            .extend(lanes.chunks_exact(4).map(|l| l.iter().sum::<u32>()));
    }
}

/// Huffman code length of every entry of `present` (`(symbol, count)`
/// pairs sorted by symbol, counts positive), in the same order: the depths
/// of the tree, unlimited.
///
/// The tree is built with the sort + two-queue construction: leaves sorted
/// by `(weight, index)` in one queue, internal nodes in creation order in
/// the other (their weights never decrease), and each step merges the two
/// smallest fronts.  A leaf wins a weight tie against an internal node and
/// the older internal node wins among internal nodes — exactly the
/// `(weight, id)` order in which a min-heap over leaf ids `0..n` and
/// internal ids `n..` pops, so the lengths equal the heap construction's.
///
/// # Panics
/// Panics if `present` is empty.
fn code_depths<'t>(present: &[(u32, u64)], tree: &'t mut Tree) -> &'t [u8] {
    let n = present.len();
    assert!(n > 0, "Huffman code requires at least one symbol");
    let Tree { leaves, parent, internal, depth } = tree;
    depth.clear();
    // Special case: a single distinct symbol gets a 1-bit code.
    if n == 1 {
        depth.push(1);
        return depth;
    }
    leaves.clear();
    leaves.extend(present.iter().enumerate().map(|(id, &(_, w))| (w, id as u32)));
    leaves.sort_unstable();
    // Node ids: leaves `0..n` (index into `present`), internal nodes
    // `n..2n-1` in creation order; the last one is the root.
    parent.clear();
    parent.resize(2 * n - 1, 0);
    internal.clear();
    let (mut next_leaf, mut next_internal) = (0usize, 0usize);
    for id in n..2 * n - 1 {
        let mut weight = 0u64;
        for _ in 0..2 {
            let take_leaf = next_leaf < n
                && internal
                    .get(next_internal)
                    .is_none_or(|&w| leaves[next_leaf].0 <= w);
            if take_leaf {
                weight += leaves[next_leaf].0;
                parent[leaves[next_leaf].1 as usize] = id as u32;
                next_leaf += 1;
            } else {
                weight += internal[next_internal];
                parent[n + next_internal] = id as u32;
                next_internal += 1;
            }
        }
        internal.push(weight);
    }
    // A node's parent has a larger id, so one descending sweep settles
    // every depth.  A depth of `d` needs a total weight of at least
    // F(d + 2), so `u64` counts keep it below 93.
    depth.resize(2 * n - 1, 0);
    for id in (0..2 * n - 2).rev() {
        depth[id] = depth[parent[id] as usize] + 1;
    }
    &depth[..n]
}

/// Number of codes of each length in a canonically sorted length list.
fn length_counts(lengths: &[(u32, u8)]) -> Vec<u32> {
    let max_len = lengths.last().map_or(0, |&(_, l)| l);
    let mut counts = vec![0u32; max_len as usize + 1];
    for &(_, l) in lengths {
        counts[l as usize] += 1;
    }
    counts
}

/// Canonical first code of each length, given the codes per length.
fn first_codes(counts: &[u32]) -> Vec<u64> {
    let mut first = vec![0u64; counts.len()];
    let mut code = 0u64;
    for l in 1..counts.len() {
        code <<= 1;
        first[l] = code;
        code += u64::from(counts[l]);
    }
    first
}

/// `code << 8 | len` of every entry of a canonically sorted length list,
/// in its order, given the canonical first code of each length.
fn packed_codes<'a>(
    lengths: &'a [(u32, u8)],
    first_code: &[u64],
) -> impl Iterator<Item = u64> + 'a {
    let mut next = first_code.to_vec();
    lengths.iter().map(move |&(_, len)| {
        let code = next[len as usize];
        next[len as usize] += 1;
        (code << 8) | u64::from(len)
    })
}

/// Serialises a canonically sorted code book in the compact v2 format: max
/// length, one varint code count per length, then the symbols in canonical
/// order (absolute varint for the first symbol of each length group,
/// delta−1 varints after — symbols ascend within a group).
fn write_table_v2(lengths: &[(u32, u8)], buf: &mut Vec<u8>) {
    let counts = length_counts(lengths);
    buf.push((counts.len() - 1) as u8);
    for &c in &counts[1..] {
        bytes::put_varint(buf, u64::from(c));
    }
    let mut prev: Option<(u8, u32)> = None;
    for &(sym, len) in lengths {
        match prev {
            Some((plen, psym)) if plen == len => {
                bytes::put_varint(buf, u64::from(sym - psym - 1));
            }
            _ => bytes::put_varint(buf, u64::from(sym)),
        }
        prev = Some((len, sym));
    }
}

/// A symbol stream's Huffman blob, sized but not yet written: its code
/// lengths and everything of the blob except the packed bits.
///
/// [`Plan::blob_len`] is what [`Plan::emit`] writes to the byte, so an
/// encoder choosing between candidate symbol streams compares plans and
/// packs only the one it keeps.
#[derive(Debug)]
pub(crate) struct Plan {
    /// `(symbol, code length)` sorted canonically by (length, symbol).
    lengths: Vec<(u32, u8)>,
    /// The blob up to the bit stream: varint symbol count, v2 table, varint
    /// bit-stream length (just the count for an empty stream).
    head: Vec<u8>,
    /// Bits of the bit stream: `Σ count·length`.
    bits: u64,
    /// First symbol of the near window the stream was counted around.
    base: u32,
}

impl Plan {
    /// Plans the blob of `symbols` (at most `u32::MAX` of them).  `center`
    /// is where the caller expects the most frequent symbol; it steers the
    /// counting pass only, never the result.
    ///
    /// # Panics
    /// Panics if a symbol is not below 2^19, or if the tree is deeper than
    /// [`MAX_CODE_LEN`] (which takes more than 9 M symbols).
    pub(crate) fn of(symbols: &[u32], center: u32) -> Plan {
        let mut tally = Tally::default();
        tally.count(symbols, center);
        Self::of_tallies([&tally], center)
    }

    /// Plans the blob of the stream whose consecutive stretches were
    /// counted into `tallies`, each around `center`: their near windows
    /// are summed, and their far symbols counted in the per-thread dense
    /// table, which records first touches so the present symbols are
    /// collected without scanning the span — and sorted without sorting
    /// the window's.
    ///
    /// # Panics
    /// As [`Plan::of`].
    pub(crate) fn of_tallies<'a>(
        tallies: impl IntoIterator<Item = &'a Tally, IntoIter: Clone>,
        center: u32,
    ) -> Plan {
        let tallies = tallies.into_iter();
        let base = near_base(center);
        SCRATCH.with(|s| {
            let Scratch { table, touched, present, tree } = &mut *s.borrow_mut();
            present.clear();
            for &sym in tallies.clone().flat_map(|t| &t.far) {
                cover(table, sym as usize);
                let c = &mut table[sym as usize];
                if *c == 0 {
                    touched.push(sym);
                }
                *c += 1;
            }
            let mut near = [0u64; NEAR];
            for t in tallies {
                for (sum, &c) in near.iter_mut().zip(&t.near) {
                    *sum += u64::from(c);
                }
            }
            // Symbol order: the far symbols below the window, the window,
            // the far symbols above it.
            touched.sort_unstable();
            let below = touched.partition_point(|&sym| sym < base);
            let mut far = touched
                .drain(..)
                .map(|sym| (sym, u64::from(std::mem::take(&mut table[sym as usize]))));
            present.extend(far.by_ref().take(below));
            present.extend((base..).zip(near).filter(|&(_, c)| c > 0));
            present.extend(far);
            if present.is_empty() {
                return Plan {
                    lengths: Vec::new(),
                    head: vec![0],
                    bits: 0,
                    base,
                };
            }
            Self::from_frequencies(present, tree, base)
        })
    }

    /// Plans the blob of any stream with the given `(symbol, count)` pairs
    /// (sorted by symbol, every count positive), counted around the near
    /// window from `base`.
    ///
    /// # Panics
    /// Panics if the Huffman tree is deeper than [`MAX_CODE_LEN`].
    fn from_frequencies(present: &[(u32, u64)], tree: &mut Tree, base: u32) -> Plan {
        let depths = code_depths(present, tree);
        let deepest = depths.iter().copied().max().unwrap_or(0);
        assert!(
            deepest <= MAX_CODE_LEN,
            "Huffman tree is {deepest} levels deep, beyond the {MAX_CODE_LEN}-bit code limit \
             (a depth of 33 takes at least F(35) = 9,227,465 symbols)"
        );
        let (mut n_symbols, mut bits) = (0u64, 0u64);
        let mut offsets = [0usize; MAX_CODE_LEN as usize + 2];
        for (&(_, w), &d) in present.iter().zip(depths) {
            n_symbols += w;
            bits += w * u64::from(d);
            offsets[d as usize + 1] += 1;
        }
        // Stable counting sort by length over the symbol-sorted input:
        // the canonical (length, symbol) order.
        for l in 1..offsets.len() {
            offsets[l] += offsets[l - 1];
        }
        let mut lengths = vec![(0u32, 0u8); present.len()];
        for (&(sym, _), &d) in present.iter().zip(depths) {
            lengths[offsets[d as usize]] = (sym, d);
            offsets[d as usize] += 1;
        }
        let mut head = Vec::with_capacity(2 * present.len() + 48);
        bytes::put_varint(&mut head, n_symbols);
        write_table_v2(&lengths, &mut head);
        bytes::put_varint(&mut head, bits.div_ceil(8));
        Plan {
            lengths,
            head,
            bits,
            base,
        }
    }

    /// Exact length in bytes of the blob [`Plan::emit`] writes.
    pub(crate) fn blob_len(&self) -> usize {
        self.head.len() + self.bit_bytes()
    }

    /// Bytes of the blob before its bit stream.
    pub(crate) fn head(&self) -> &[u8] {
        &self.head
    }

    /// Bytes of the bit stream: `⌈Σ count·length / 8⌉`.
    pub(crate) fn bit_bytes(&self) -> usize {
        self.bits.div_ceil(8) as usize
    }

    /// Runs `f` with the plan's code book, ready to pack stretches of its
    /// stream on the pool.  The book's symbol → code table is the calling
    /// thread's dense table, taken out of its scratch for the call, filled
    /// for the plan's symbols, cleared and put back after it — so a pool
    /// thread that packs never grows a table of its own.
    pub(crate) fn with_packer<R>(&self, f: impl FnOnce(&Packer<'_>) -> R) -> R {
        // The canonical codes in `lengths` order, behind a dummy entry so
        // that a zero table entry (an absent symbol) maps to length 0.
        let first = first_codes(&length_counts(&self.lengths));
        let codes = std::iter::once(0).chain(packed_codes(&self.lengths, &first)).collect();
        let mut table = SCRATCH.with(|s| std::mem::take(&mut s.borrow_mut().table));
        for (entry, &(sym, _)) in (1u32..).zip(&self.lengths) {
            cover(&mut table, sym as usize);
            table[sym as usize] = entry;
        }
        let mut packer = Packer { plan: self, codes, table };
        let result = f(&packer);
        for &(sym, _) in &self.lengths {
            packer.table[sym as usize] = 0;
        }
        SCRATCH.with(|s| s.borrow_mut().table = packer.table);
        result
    }

    /// Writes the planned blob of `symbols` — the stream the plan was made
    /// from — into `dst`, which must be exactly [`Plan::blob_len`] long:
    /// its head, then the whole stream packed as one stretch.
    pub(crate) fn emit(&self, symbols: &[u32], dst: &mut [u8]) {
        assert_eq!(
            dst.len(),
            self.blob_len(),
            "destination is not the planned size"
        );
        let (head, bits) = dst.split_at_mut(self.head.len());
        head.copy_from_slice(&self.head);
        if !symbols.is_empty() {
            self.with_packer(|packer| packer.pack(symbols, 0..symbols.len(), 0, true, bits));
        }
    }
}

/// A [`Plan`]'s code book (see [`Plan::with_packer`]): the bit each
/// counted stretch of its stream starts at, and the packing of any stretch
/// from its own first bit, so that the stretches of one blob pack on as
/// many pool tasks as it has.
pub(crate) struct Packer<'p> {
    plan: &'p Plan,
    /// `code << 8 | len` in the plan's `lengths` order, behind a dummy
    /// entry for absent symbols.
    codes: Vec<u64>,
    /// The dense table: each of the plan's symbols' 1-based position in
    /// `codes`.
    table: Vec<u32>,
}

impl Packer<'_> {
    /// The `code << 8 | len` of one of the plan's symbols.
    fn packed_code(&self, sym: u32) -> u64 {
        self.codes[self.table[sym as usize] as usize]
    }

    /// Appends to `firsts` the bit of the blob's bit stream each stretch's
    /// codes start at, one per tally, given the tallies the plan was made
    /// from, in order.
    pub(crate) fn first_bits<'t>(
        &self,
        tallies: impl IntoIterator<Item = &'t Tally>,
        firsts: &mut Vec<u64>,
    ) {
        let len = |sym: u32| self.packed_code(sym) & 0xFF;
        let mut at = 0;
        for t in tallies {
            firsts.push(at);
            let near = (self.plan.base..).zip(&t.near).filter(|&(_, &c)| c > 0);
            at += near.map(|(sym, &c)| u64::from(c) * len(sym)).sum::<u64>();
            at += t.far.iter().map(|&sym| len(sym)).sum::<u64>();
        }
        debug_assert_eq!(at, self.plan.bits, "the tallies are the plan's");
    }

    /// Packs `symbols[range]`, a stretch of the plan's stream whose codes
    /// start at bit `first` of the blob's bit stream, into `dst`: the bytes
    /// from the one holding bit `first` to the one holding the stretch's
    /// last bit — that one only if the stretch ends the stream (`last`,
    /// zero-padded), since the next stretch completes it otherwise.  The
    /// bits before `first` in its byte are recomputed from the codes of the
    /// symbols before the stretch, so stretches packed into consecutive
    /// byte ranges give the bytes of one pass over the stream.
    ///
    /// The codes are concatenated MSB-first in a 64-bit accumulator that
    /// spills whole big-endian words straight into `dst` — [`BitWriter`]'s
    /// byte layout.
    ///
    /// [`BitWriter`]: crate::bitstream::BitWriter
    pub(crate) fn pack(
        &self,
        symbols: &[u32],
        range: Range<usize>,
        first: u64,
        last: bool,
        dst: &mut [u8],
    ) {
        // The low `first % 8` bits of the codes before the stretch: each
        // code takes at least one bit, so at most seven of them.
        let carried = (first % 8) as u32;
        let (mut carry, mut got) = (0u64, 0u32);
        for &sym in symbols[..range.start].iter().rev() {
            if got >= carried {
                break;
            }
            let packed = self.packed_code(sym);
            carry |= (packed >> 8) << got;
            got += (packed & 0xFF) as u32;
        }
        let carry = carry & ((1u64 << carried) - 1);
        pack(&symbols[range], (carry, carried), last, dst, |sym| self.packed_code(sym));
    }
}

/// Concatenates the codes of `symbols` MSB-first behind the `pending` bits
/// of `acc` (right-aligned, fewer than 8) into `dst`, which must be exactly
/// as long as the whole bytes of those bits, and the final partial byte
/// too if `last` (zero-padded).  `packed_code` returns `code << 8 | len`
/// with `1 <= len <= 32`.
fn pack(
    symbols: &[u32],
    (mut acc, mut pending): (u64, u32),
    last: bool,
    dst: &mut [u8],
    packed_code: impl Fn(u32) -> u64,
) {
    let mut pos = 0usize;
    for &sym in symbols {
        let packed = packed_code(sym);
        let (code, len) = (packed >> 8, (packed & 0xFF) as u32);
        debug_assert!((1..=32).contains(&len), "symbol {sym} is not in the plan");
        let total = pending + len;
        if total >= 64 {
            // The code straddles the word boundary: its top bits complete
            // the word, the low `spill` bits start the next one.
            let spill = total - 64;
            let word = (acc << (len - spill)) | (code >> spill);
            dst[pos..pos + 8].copy_from_slice(&word.to_be_bytes());
            pos += 8;
            acc = code & ((1u64 << spill) - 1);
            pending = spill;
        } else {
            acc = (acc << len) | code;
            pending = total;
        }
    }
    let tail = if last { pending.div_ceil(8) } else { pending / 8 } as usize;
    if tail > 0 {
        let word = acc << (64 - pending);
        dst[pos..pos + tail].copy_from_slice(&word.to_be_bytes()[..tail]);
        pos += tail;
    }
    assert_eq!(pos, dst.len(), "packed bits do not match the plan");
}

/// A canonical Huffman code book as the decoder needs it.
#[derive(Debug, Clone)]
struct HuffmanCode {
    /// `(symbol, code length)` sorted canonically by (length, symbol).
    lengths: Vec<(u32, u8)>,
    /// `code << 8 | len` per entry, parallel to `lengths`.
    packed: Vec<u64>,
    /// Longest code length in the book.
    max_len: u8,
    /// `counts[l]`: number of codes of length `l`.
    counts: Vec<u32>,
    /// Canonical first code of each length.
    first_code: Vec<u64>,
    /// Entry index of the first code of each length.
    first_index: Vec<u32>,
}

impl HuffmanCode {
    /// Builds the canonical code from canonically sorted `(symbol, length)`
    /// pairs assumed valid (Kraft-satisfying, no duplicate symbols).
    fn assemble(lengths: Vec<(u32, u8)>) -> Self {
        let counts = length_counts(&lengths);
        let first_code = first_codes(&counts);
        let mut first_index = vec![0u32; counts.len()];
        let mut index = 0u32;
        for l in 1..counts.len() {
            first_index[l] = index;
            index += counts[l];
        }
        let packed = packed_codes(&lengths, &first_code).collect();
        HuffmanCode {
            max_len: (counts.len() - 1) as u8,
            lengths,
            packed,
            counts,
            first_code,
            first_index,
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
        // A book has at most 2^19 entries, so an index fits the top 24 bits.
        let tb = TABLE_BITS.min(self.max_len);
        let mut lut = vec![0u32; 1usize << tb];
        for (entry, (&(_, len), &pc)) in self.lengths.iter().zip(self.packed.iter()).enumerate() {
            if len <= tb {
                let base = ((pc >> 8) << (tb - len)) as usize;
                let packed = ((entry as u32) << 8) | u32::from(len);
                for slot in &mut lut[base..base + (1usize << (tb - len))] {
                    *slot = packed;
                }
            }
        }

        for _ in 0..count {
            let probe = reader.peek_bits(tb) as usize;
            let packed = lut[probe];
            if packed != 0 {
                // `peek_bits` zero-pads past the end of the stream, so the
                // consume is what detects truncation.
                reader.consume((packed & 0xFF) as u8)?;
                out.push(self.lengths[(packed >> 8) as usize].0);
                continue;
            }
            // Long code: canonical first-code search.
            let mut l = tb + 1;
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

    /// Reads a v2 code book previously serialised by [`write_table_v2`].
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] if the table is truncated,
    /// internally inconsistent, or names a symbol outside the alphabet.
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
                let sym = prev
                    .map_or(Some(raw), |p| raw.checked_add(u64::from(p) + 1))
                    .filter(|&s| s < DENSE_SPAN_MAX as u64)
                    .ok_or_else(|| {
                        CompressError::Corrupt("table symbol beyond the 2^19 alphabet".into())
                    })? as u32;
                lengths.push((sym, len as u8));
                prev = Some(sym);
            }
        }
        Self::from_lengths_checked(lengths)
    }
}

/// Huffman-encodes a symbol stream into a self-contained v2 byte blob
/// (varint count, compact table, varint bit-stream length, bits).
///
/// # Panics
/// Panics if a symbol is not below 2^19.
pub fn encode_block(symbols: &[u32]) -> Vec<u8> {
    let plan = Plan::of(symbols, 0);
    let mut out = vec![0; plan.blob_len()];
    plan.emit(symbols, &mut out);
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
    fn largest_symbol_roundtrips() {
        let top = DENSE_SPAN_MAX as u32 - 1;
        roundtrip(&[0, top, 5, top, 0, 123_456]);
    }

    /// A one-symbol blob whose table names `sym` with a 1-bit code.
    fn one_symbol_blob(sym: u64) -> Vec<u8> {
        let mut blob = vec![1, 1, 1]; // count 1; max length 1, one code of it
        bytes::put_varint(&mut blob, sym);
        blob.extend_from_slice(&[1, 0]); // one byte of bits: the code `0`
        blob
    }

    #[test]
    fn table_symbol_beyond_the_alphabet_rejected() {
        let top = DENSE_SPAN_MAX as u64 - 1;
        assert_eq!(decode_block(&one_symbol_blob(top), &mut 0).unwrap(), [top as u32]);
        for sym in [DENSE_SPAN_MAX as u64, u64::from(u32::MAX) + 1] {
            match decode_block(&one_symbol_blob(sym), &mut 0) {
                Err(CompressError::Corrupt(msg)) => assert!(msg.contains("2^19"), "{msg}"),
                other => panic!("symbol {sym}: expected a Corrupt error, got {other:?}"),
            }
        }
    }

    /// A complete v2 table as deep as `max_len`: one code of each length
    /// below it and two of `max_len`, symbols `0..=max_len`.
    fn deep_table(max_len: u8) -> Vec<u8> {
        let mut buf = vec![max_len];
        buf.extend((1..max_len).map(|_| 1u8));
        buf.push(2);
        buf.extend(0..max_len); // the first symbol of each length group
        buf.push(0); // the last group's second symbol: delta − 1
        buf
    }

    #[test]
    fn codes_longer_than_the_limit_rejected() {
        let code = HuffmanCode::read_table_v2(&deep_table(MAX_CODE_LEN), &mut 0).unwrap();
        assert_eq!(code.max_len, MAX_CODE_LEN);
        assert!(HuffmanCode::read_table_v2(&deep_table(MAX_CODE_LEN + 1), &mut 0).is_err());
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

    /// Fibonacci weights build the deepest possible Huffman tree: `n`
    /// symbols, `n − 1` levels, F(n + 2) − 1 occurrences in all.
    fn fibonacci_frequencies(n: u32) -> Vec<(u32, u64)> {
        let (mut a, mut b) = (1u64, 1u64);
        (0..n)
            .map(|s| {
                let w = a;
                (a, b) = (b, a.saturating_add(b));
                (s, w)
            })
            .collect()
    }

    #[test]
    #[should_panic(expected = "beyond the 32-bit code limit")]
    fn trees_deeper_than_the_code_limit_panic() {
        Plan::from_frequencies(&fibonacci_frequencies(50), &mut Tree::default(), 0);
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
        let plan = Plan::from_frequencies(&[(10, 5), (20, 1), (30, 1)], &mut Tree::default(), 0);
        assert_eq!(plan.lengths, vec![(10, 1), (20, 2), (30, 2)]);
        let mut buf = Vec::new();
        write_table_v2(&plan.lengths, &mut buf);
        let mut pos = 0;
        let code = HuffmanCode::read_table_v2(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len());
        assert_eq!(code.lengths, plan.lengths);
    }

    /// The construction [`code_depths`] replaced, kept as its oracle: an
    /// index-based min-heap over `(weight, id)`, leaves `0..n`, internal
    /// nodes `n..` in creation order.
    fn heap_depths(present: &[(u32, u64)]) -> Vec<u8> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let n = present.len();
        if n == 1 {
            return vec![1];
        }
        let mut children: Vec<(u32, u32)> = Vec::with_capacity(n - 1);
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = present
            .iter()
            .enumerate()
            .map(|(id, &(_, w))| Reverse((w, id as u32)))
            .collect();
        while heap.len() > 1 {
            let Reverse((wa, a)) = heap.pop().unwrap();
            let Reverse((wb, b)) = heap.pop().unwrap();
            children.push((a, b));
            heap.push(Reverse((wa + wb, (n + children.len() - 1) as u32)));
        }
        let Reverse((_, root)) = heap.pop().unwrap();
        let mut depths = vec![0u8; n];
        let mut stack = vec![(root, 0u8)];
        while let Some((node, depth)) = stack.pop() {
            if (node as usize) < n {
                depths[node as usize] = depth.max(1);
            } else {
                let (a, b) = children[node as usize - n];
                stack.push((a, depth.saturating_add(1)));
                stack.push((b, depth.saturating_add(1)));
            }
        }
        depths
    }

    /// xorshift64* — the tests' only randomness.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545F4914F6CDD1D)
        }
    }

    #[test]
    fn two_queue_construction_matches_the_heap_on_heavy_ties() {
        let mut next = rng(11);
        let mut cases: Vec<Vec<(u32, u64)>> = vec![
            vec![(7, 3)],
            vec![(1, 1), (2, 1)],
            // All weights equal: every merge is a tie.
            (0..257).map(|s| (s, 5)).collect(),
            // Powers of two: a leaf ties with the internal node made of
            // everything lighter at every step.
            (0..40).map(|s| (s, 1u64 << s)).collect(),
            (0..40).map(|s| (s, 1u64 << (s / 2))).collect(),
            fibonacci_frequencies(30),
            fibonacci_frequencies(60),
        ];
        for n in [2usize, 3, 17, 300, 2_000] {
            for max_weight in [1u64, 2, 3, 8, 1_000] {
                let mut sym = 0u32;
                cases.push(
                    (0..n)
                        .map(|_| {
                            sym += 1 + (next() % 50) as u32;
                            (sym, 1 + next() % max_weight)
                        })
                        .collect(),
                );
            }
        }
        for present in &cases {
            let lengths = |depths: Vec<u8>| -> Vec<(u32, u8)> {
                present
                    .iter()
                    .zip(depths)
                    .map(|(&(s, _), d)| (s, d))
                    .collect()
            };
            assert_eq!(
                lengths(code_depths(present, &mut Tree::default()).to_vec()),
                lengths(heap_depths(present)),
                "{} symbols, first {:?}",
                present.len(),
                present[0]
            );
        }
    }

    /// Plans `symbols`, checks the planned size against the emitted blob to
    /// the byte, decodes it back, and returns the blob.
    fn plan_emit_roundtrip(symbols: &[u32], center: u32) -> Vec<u8> {
        let plan = Plan::of(symbols, center);
        let mut blob = vec![0xEE; 1 + plan.blob_len()];
        plan.emit(symbols, &mut blob[1..]);
        let mut pos = 1;
        assert_eq!(decode_block(&blob, &mut pos).unwrap(), symbols);
        assert_eq!(pos, blob.len(), "planned size is exact");
        blob.split_off(1)
    }

    #[test]
    fn planned_size_equals_emitted_length() {
        let mut next = rng(5);
        // Empty, single-symbol and two-symbol alphabets.
        plan_emit_roundtrip(&[], 0);
        plan_emit_roundtrip(&[9], 0);
        plan_emit_roundtrip(&[7u32; 1000], 7);
        plan_emit_roundtrip(&[1, 2, 1, 1, 2, 1, 1, 1], 0);
        // Random alphabets of growing width, around and away from the
        // counting pass's near window, at lengths that exercise every
        // tail of the 64-bit packer.
        for width in [2u64, 50, 3_000, 70_000, 400_000] {
            for n in [1usize, 63, 64, 65, 1_000, 20_001] {
                let symbols: Vec<u32> = (0..n)
                    .map(|_| {
                        // Squaring skews towards small symbols.
                        let u = next() % width;
                        (u * u / width) as u32
                    })
                    .collect();
                let at_zero = plan_emit_roundtrip(&symbols, 0);
                let elsewhere = plan_emit_roundtrip(&symbols, 32_769);
                assert_eq!(at_zero, elsewhere, "the centre steers counting only");
            }
        }
        // Fibonacci-weighted: 46,367 symbols, the deepest tree one
        // 65,536-symbol block can build.
        let symbols: Vec<u32> = fibonacci_frequencies(22)
            .iter()
            .flat_map(|&(s, w)| std::iter::repeat_n(s, w as usize))
            .collect();
        assert_eq!(symbols.len(), 46_367);
        assert!(Plan::of(&symbols, 0).lengths.last().unwrap().1 <= 22);
        plan_emit_roundtrip(&symbols, 0);
    }

    #[test]
    fn stretches_pack_into_the_bytes_of_one_pass() {
        let mut next = rng(11);
        for (width, n) in [(3u64, 1_000usize), (60, 5_003), (70_000, 2_000)] {
            let symbols: Vec<u32> = (0..n)
                .map(|_| {
                    let u = next() % width;
                    (u * u / width) as u32
                })
                .collect();
            let whole = plan_emit_roundtrip(&symbols, 0);
            // Stretches of one symbol, cuts a byte apart and far apart.
            let cuts: [Vec<usize>; 4] =
                [vec![1], vec![7, 8, 9], vec![n / 3, n / 2], (1..n).step_by(97).collect()];
            for cuts in cuts {
                let bounds: Vec<usize> = [0].into_iter().chain(cuts).chain([n]).collect();
                let tallies: Vec<Tally> = bounds
                    .windows(2)
                    .map(|w| {
                        let mut tally = Tally::default();
                        tally.count(&symbols[w[0]..w[1]], 0);
                        tally
                    })
                    .collect();
                let plan = Plan::of_tallies(&tallies, 0);
                let mut blob = vec![0xEE; plan.blob_len()];
                let (head, mut bits) = blob.split_at_mut(plan.head().len());
                head.copy_from_slice(plan.head());
                plan.with_packer(|packer| {
                    let mut firsts = Vec::new();
                    packer.first_bits(&tallies, &mut firsts);
                    for (k, range) in bounds.windows(2).map(|w| w[0]..w[1]).enumerate() {
                        let last = k + 1 == tallies.len();
                        let end = if last { plan.bit_bytes() as u64 } else { firsts[k + 1] / 8 };
                        let len = (end - firsts[k] / 8) as usize;
                        let (piece, rest) = std::mem::take(&mut bits).split_at_mut(len);
                        bits = rest;
                        packer.pack(&symbols, range, firsts[k], last, piece);
                    }
                });
                assert_eq!(blob, whole, "width {width}, {} stretches", tallies.len());
            }
        }
    }

    #[test]
    fn scratch_tables_come_back_zeroed() {
        let symbols: Vec<u32> = (0..10_000u32).map(|i| (i * i) % 70_001).collect();
        let first = plan_emit_roundtrip(&symbols, 0);
        // A second alphabet over other symbols, then the first again: any
        // count or code left behind would change the blob.
        plan_emit_roundtrip(&symbols.iter().map(|s| s / 2 + 5).collect::<Vec<_>>(), 0);
        assert_eq!(plan_emit_roundtrip(&symbols, 0), first);
        SCRATCH.with(|s| assert!(s.borrow().table.iter().all(|&c| c == 0)));
    }
}
