//! Byte-identity of the size-then-emit temporal encoder against the encoder
//! it replaced.
//!
//! `oracle` below is that encoder, kept verbatim (doc comments and the
//! code book's decoder-only fields dropped, the pool's block map run in
//! order — its output never depended on the thread count): every block
//! quantized with a fused four-lane histogram scatter, **all** of direct /
//! order-1 / order-2 fully entropy-coded per block through a heap-built
//! code book and a per-call dense or binary-searched symbol index, the
//! losers thrown away, the point-wise relative bitmaps written a bit at a
//! time.  It has been taught one rule since — the snapshot after an
//! anchor is not offered order 2.  The production encoder must
//! reproduce its streams to the byte, its chosen [`DeltaMode`]s and the
//! state it retains, at any thread count.

mod scripts;

use lcr_compress::{Chain, Codec, DeltaMode, ErrorBound, SzCompressor, SzTemporalState};
use scripts::{cg_script, ensure_pool, linear_drift, synthetic_script, Step, BOUNDS};
use std::fmt::Write;

/// Runs `f` with the calling thread's parallelism capped to `threads`.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    rayon::set_max_active_threads(threads);
    let out = f();
    rayon::set_max_active_threads(0);
    out
}

/// FNV-1a over a value's `Debug` output, without materialising it: the
/// retained states print as megabytes of codes.
fn debug_fingerprint(value: &impl std::fmt::Debug) -> u64 {
    struct Fnv(u64);
    impl Write for Fnv {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            for &b in s.as_bytes() {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            Ok(())
        }
    }
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    write!(h, "{value:?}").unwrap();
    h.0
}

/// What a step leaves behind: the stream, the mode the encoder reported,
/// and the fingerprint of the state it retained.
type Outcome = (Vec<u8>, DeltaMode, u64);

/// Plays `steps` on one encoder: `reset` and `encode` are its two entry
/// points over its own state type.
fn run<S: std::fmt::Debug>(
    steps: &[Step],
    mut state: S,
    reset: impl Fn(&mut S),
    encode: impl Fn(&[f64], bool, &mut S, &mut Vec<u8>) -> DeltaMode,
) -> Vec<Outcome> {
    steps
        .iter()
        .map(|step| match step {
            Step::Reset => {
                reset(&mut state);
                (Vec::new(), DeltaMode::None, debug_fingerprint(&state))
            }
            Step::Encode { data, force_anchor } => {
                // A non-empty buffer: streams are appended, never patched
                // at absolute offsets.
                let mut out = vec![0xA5; 3];
                let mode = encode(data, *force_anchor, &mut state, &mut out);
                (out, mode, debug_fingerprint(&state))
            }
        })
        .collect()
}

fn run_oracle(steps: &[Step], bound: ErrorBound, max_order: DeltaMode) -> Vec<Outcome> {
    run(
        steps,
        oracle::SzTemporalState::default(),
        oracle::SzTemporalState::reset,
        |data, force_anchor, state, out| {
            oracle::SzCompressor
                .compress_temporal_into(data, bound, max_order, force_anchor, state, out)
                .unwrap()
        },
    )
}

fn run_production(steps: &[Step], bound: ErrorBound, max_order: DeltaMode) -> Vec<Outcome> {
    run(
        steps,
        SzTemporalState::new(),
        SzTemporalState::reset,
        |data, force_anchor, state, out| {
            let chain = Chain {
                max_order,
                force_anchor,
                state,
            };
            SzCompressor::new()
                .encode_into(data, bound, Some(chain), out)
                .unwrap()
        },
    )
}

/// The production encoder at 1, 2 and 4 threads against the oracle, step
/// by step.  Returns the modes, so callers can check what a script covered.
fn assert_identical(
    what: &str,
    steps: &[Step],
    bound: ErrorBound,
    max_order: DeltaMode,
) -> Vec<DeltaMode> {
    ensure_pool();
    let expected = run_oracle(steps, bound, max_order);
    for threads in [1, 2, 4] {
        let got = with_threads(threads, || run_production(steps, bound, max_order));
        for (k, (e, g)) in expected.iter().zip(&got).enumerate() {
            let at = format!("{what}, {bound:?}, max {max_order:?}, {threads} threads, step {k}");
            assert_eq!(g.1, e.1, "mode: {at}");
            assert_eq!(g.0.len(), e.0.len(), "stream length: {at}");
            assert!(g.0 == e.0, "stream bytes: {at}");
            assert_eq!(g.2, e.2, "retained state: {at}");
        }
    }
    expected.into_iter().map(|(_, mode, _)| mode).collect()
}

#[test]
fn short_streams_are_identical_under_every_bound_and_order() {
    for n in [0, 1, 7, 300, 5_000] {
        for bound in BOUNDS {
            for max_order in [DeltaMode::None, DeltaMode::Order1, DeltaMode::Order2] {
                assert_identical(
                    &format!("synthetic n={n}"),
                    &synthetic_script(n),
                    bound,
                    max_order,
                );
            }
        }
    }
}

#[test]
fn block_boundary_and_multi_block_streams_are_identical() {
    for n in [65_536, 65_537, 200_000] {
        for bound in BOUNDS {
            let modes = assert_identical(
                &format!("synthetic n={n}"),
                &synthetic_script(n),
                bound,
                DeltaMode::Order2,
            );
            // The script is only a test of the delta paths if they win.
            assert!(
                modes.contains(&DeltaMode::Order1),
                "{bound:?} n={n}: {modes:?}"
            );
        }
    }
}

#[test]
fn second_order_winners_are_identical() {
    for n in [4_000, 70_000] {
        for (bound, quantum, log_space) in [
            (ErrorBound::PointwiseRel(1e-4), 2.0 * 1e-4f64.ln_1p(), true),
            (ErrorBound::Abs(1e-6), 2e-6, false),
        ] {
            let script: Vec<Step> = (0..6)
                .map(|k| Step::Encode {
                    data: linear_drift(n, k, quantum, log_space),
                    force_anchor: false,
                })
                .collect();
            let modes = assert_identical("linear drift", &script, bound, DeltaMode::Order2);
            assert!(
                modes.contains(&DeltaMode::Order2),
                "{bound:?} n={n}: {modes:?}"
            );
        }
    }
}

#[test]
fn cg_iterates_are_identical_one_block() {
    // 40³ = 64,000 unknowns: one block, the benchmark's shape.
    let script = cg_script(40, 18);
    for bound in BOUNDS {
        let modes = assert_identical("CG 40^3", &script, bound, DeltaMode::Order2);
        assert!(modes.iter().filter(|&&m| m == DeltaMode::None).count() >= 3);
        assert!(
            modes.iter().any(|&m| m != DeltaMode::None),
            "{bound:?}: {modes:?}"
        );
    }
}

#[test]
fn cg_iterates_are_identical_multi_block() {
    // 52³ = 140,608 unknowns: three blocks, the last one partial.
    let script = cg_script(52, 10);
    assert_identical(
        "CG 52^3",
        &script,
        ErrorBound::PointwiseRel(1e-4),
        DeltaMode::Order2,
    );
    assert_identical(
        "CG 52^3",
        &script,
        ErrorBound::PointwiseRel(1e-4),
        DeltaMode::Order1,
    );
}

#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
mod oracle {
    use lcr_compress::bitstream::{bytes, BitWriter};
    use lcr_compress::delta::{self, DeltaMode};
    use lcr_compress::{CompressError, ErrorBound};
    use std::cell::RefCell;

    type Result<T> = std::result::Result<T, CompressError>;

    // ---- huffman.rs ------------------------------------------------------

    mod huffman {
        use super::{bytes, BitWriter, CompressError, Result};

        const BUILD_MAX_LEN: u8 = 32;
        const DENSE_SPAN_MAX: usize = 1 << 17;

        #[derive(Debug, Clone)]
        enum EncodeIndex {
            Dense { min_sym: u32, slots: Vec<u32> },
            Sparse(Vec<(u32, u32)>),
        }

        #[derive(Debug, Clone)]
        struct HuffmanCode {
            lengths: Vec<(u32, u8)>,
            packed: Vec<u64>,
            max_len: u8,
            counts: Vec<u32>,
            encode_index: EncodeIndex,
        }

        impl HuffmanCode {
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

            fn limit_lengths(present: &[(u32, u64)], depths: &[u8]) -> Vec<(u32, u8)> {
                let max = BUILD_MAX_LEN as usize;
                let mut bl_count = vec![0u64; max + 2];
                for &d in depths {
                    bl_count[(d as usize).min(max)] += 1;
                }
                // Kraft sum in units of 2^-BUILD_MAX_LEN.
                let kraft =
                    |bl: &[u64]| -> u128 { (1..=max).map(|l| (bl[l] as u128) << (max - l)).sum() };
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

            fn assemble(lengths: Vec<(u32, u8)>) -> Self {
                let max_len = lengths.last().map(|&(_, l)| l).unwrap_or(0);
                let mut counts = vec![0u32; max_len as usize + 1];
                for &(_, l) in &lengths {
                    counts[l as usize] += 1;
                }
                let mut first_code = vec![0u64; max_len as usize + 1];
                let mut packed = Vec::with_capacity(lengths.len());
                let mut code = 0u64;
                for l in 1..=max_len as usize {
                    code <<= 1;
                    first_code[l] = code;
                    code += u64::from(counts[l]);
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
        }

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
                let present: Vec<(u32, u64)> = freq.into_iter().filter(|&(_, c)| c > 0).collect();
                HuffmanCode::from_sorted_frequencies(&present)
            }
        }

        pub fn encode_block_into(symbols: &[u32], out: &mut Vec<u8>) {
            bytes::put_varint(out, symbols.len() as u64);
            if symbols.is_empty() {
                return;
            }
            encode_with_code(symbols, code_for(symbols), out);
        }

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

        fn encode_with_code(symbols: &[u32], code: HuffmanCode, out: &mut Vec<u8>) {
            code.write_table_v2(out);
            let mut writer = BitWriter::with_capacity(symbols.len() / 2);
            code.encode(symbols, &mut writer)
                .expect("all symbols are in the book");
            let bits = writer.into_bytes();
            bytes::put_varint(out, bits.len() as u64);
            out.extend_from_slice(&bits);
        }
    }

    // ---- parblock.rs -----------------------------------------------------

    fn map_blocks<T>(nblocks: usize, f: impl Fn(usize) -> T) -> Vec<T> {
        (0..nblocks).map(f).collect()
    }

    fn write_container(out: &mut Vec<u8>, blocks: &[Vec<u8>]) {
        bytes::put_u64(out, blocks.len() as u64);
        for block in blocks {
            bytes::put_u64(out, block.len() as u64);
        }
        for block in blocks {
            out.extend_from_slice(block);
        }
    }

    // ---- sz.rs -----------------------------------------------------------

    const CODEC_ID: u8 = 1;
    const TEMPORAL_VERSION: u8 = 5;
    const QUANT_RADIUS: i64 = 32_768;
    const PAR_BLOCK: usize = 65_536;
    const N_CODES: usize = 2 * QUANT_RADIUS as usize + 2;
    const GRID_MAX: f64 = (1u64 << 50) as f64;

    thread_local! {
        static QUANT_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
        static UNPRED_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
        static HIST_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
        static DELTA_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
        static DELTA_HIST_SCRATCH: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    }

    #[inline]
    fn grid_round(v: f64) -> f64 {
        const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 * 2^52
        (v + MAGIC) - MAGIC
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Transform {
        Identity = 0,
        Log = 1,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct StateKey {
        transform: u8,
        n_codes: usize,
    }

    struct TemporalBlock {
        codes: Vec<u32>,
        unpred: Vec<f64>,
        direct: Vec<u8>,
        delta1: Option<Vec<u8>>,
        delta2: Option<Vec<u8>>,
    }

    /// Field for field the production state (whose `Debug` output the
    /// tests compare this one's with).
    #[derive(Debug, Clone, Default)]
    pub struct SzTemporalState {
        key: Option<StateKey>,
        prev2_valid: bool,
        codes1: Vec<u32>,
        codes2: Vec<u32>,
        unpred1: Vec<f64>,
        zeros1: Vec<u8>,
        signs1: Vec<u8>,
    }

    impl SzTemporalState {
        pub fn reset(&mut self) {
            self.key = None;
            self.prev2_valid = false;
            self.codes1.clear();
            self.codes2.clear();
            self.unpred1.clear();
            self.zeros1.clear();
            self.signs1.clear();
        }
    }

    pub struct SzCompressor;

    impl SzCompressor {
        fn quantize_block(
            values: &[f64],
            abs_eb: f64,
            quant: &mut Vec<u32>,
            unpred: &mut Vec<f64>,
            hist: &mut [u32],
        ) -> (u32, u32) {
            let n = values.len();
            quant.clear();
            unpred.clear();
            quant.reserve(n);
            let two_eb = 2.0 * abs_eb;
            let inv = 1.0 / two_eb;

            // Coding pass (vectorizable): window codes.  The predictor inputs
            // `r1`/`r2` are the roundings of the two previous *values* (0.0
            // for the virtual elements before the block, matching the
            // order-0/1 warm-up predictors), recomputed per element from
            // shifted windows of `values` — `grid_round` is pure, so the
            // recomputed rounding is bit-identical to a stored one.  Every
            // element's code is then a pure branch-free expression of
            // `(x, r, r1, r2)` (the `if ok` compiles to a select; the
            // `f64 → u32` cast is saturating, hence defined even for the
            // not-taken lane), which the compiler turns into straight vector
            // code with no loop-carried state and no grid scratch traffic.
            let g = |x: f64| grid_round(x * inv);
            let shift = (QUANT_RADIUS + 1) as f64;
            let code_of = |x: f64, r: f64, r1: f64, r2: f64, pred: f64| -> u32 {
                let bin = r - pred;
                let ok = bin.abs() < QUANT_RADIUS as f64
                    && r.abs() <= GRID_MAX
                    && r1.abs() <= GRID_MAX
                    && r2.abs() <= GRID_MAX
                    && (x - r * two_eb).abs() <= abs_eb;
                // Code 0 is reserved for "unpredictable"; bins map to
                // 2..=2·QUANT_RADIUS.
                if ok {
                    (bin + shift) as u32
                } else {
                    0
                }
            };
            // Live-code range accumulators, fused into the coding pass as
            // eight independent integer lanes (u32 min/max is exact, so lane
            // order cannot change the result) — saves a full re-scan of the
            // code array.
            let mut lane_min = [u32::MAX; 8];
            let mut lane_max = [0u32; 8];
            if n >= 1 {
                let code = code_of(values[0], g(values[0]), 0.0, 0.0, 0.0);
                lane_min[0] = lane_min[0].min(code);
                lane_max[0] = lane_max[0].max(code);
                quant.push(code);
            }
            if n >= 2 {
                let r1 = g(values[0]);
                let code = code_of(values[1], g(values[1]), r1, 0.0, r1);
                lane_min[0] = lane_min[0].min(code);
                lane_max[0] = lane_max[0].max(code);
                quant.push(code);
            }
            if n >= 3 {
                // Chunk-of-8 coding with carried neighbour roundings: each
                // element is rounded exactly once per chunk and its predictor
                // inputs are the (pure, hence bit-identical) roundings of the
                // two previous elements, carried across the chunk boundary as
                // two scalars.  The 8-lane body fully unrolls; the carries are
                // value reuse, not an FP dependency chain — every `r[i]` is an
                // independent rounding of its own input.
                let mut c1 = g(values[1]);
                let mut c2 = g(values[0]);
                let mut chunks = values[2..].chunks_exact(8);
                for c in &mut chunks {
                    let mut r = [0.0f64; 8];
                    for i in 0..8 {
                        r[i] = g(c[i]);
                    }
                    let mut codes = [0u32; 8];
                    for i in 0..8 {
                        let r1 = if i >= 1 { r[i - 1] } else { c1 };
                        let r2 = if i >= 2 {
                            r[i - 2]
                        } else if i == 1 {
                            c1
                        } else {
                            c2
                        };
                        codes[i] = code_of(c[i], r[i], r1, r2, 2.0 * r1 - r2);
                    }
                    for i in 0..8 {
                        lane_min[i] = lane_min[i].min(codes[i]);
                        lane_max[i] = lane_max[i].max(codes[i]);
                    }
                    quant.extend_from_slice(&codes);
                    c1 = r[7];
                    c2 = r[6];
                }
                for &x in chunks.remainder() {
                    let r = g(x);
                    let code = code_of(x, r, c1, c2, 2.0 * c1 - c2);
                    lane_min[0] = lane_min[0].min(code);
                    lane_max[0] = lane_max[0].max(code);
                    quant.push(code);
                    c2 = c1;
                    c1 = r;
                }
            }

            let min_code = lane_min.into_iter().min().unwrap_or(u32::MAX);
            let max_code = lane_max.into_iter().max().unwrap_or(0);

            // Scatter pass: four interleaved sub-histograms over the live code
            // span break the store-to-load dependency that serialises runs of
            // equal codes (the common case for smooth fields, where one or two
            // bins dominate the block), then fold into the shared histogram.
            // The sub-histograms only span `[min_code, max_code]`, so the
            // scratch stays small for exactly the blocks where this pass is
            // hot.
            if min_code <= max_code {
                let base = min_code as usize;
                let span = (max_code - min_code) as usize + 1;
                let mut sub = vec![0u32; span * 4];
                let mut chunks = quant.chunks_exact(4);
                for c in &mut chunks {
                    sub[(c[0] as usize - base) * 4] += 1;
                    sub[(c[1] as usize - base) * 4 + 1] += 1;
                    sub[(c[2] as usize - base) * 4 + 2] += 1;
                    sub[(c[3] as usize - base) * 4 + 3] += 1;
                }
                for &code in chunks.remainder() {
                    sub[(code as usize - base) * 4] += 1;
                }
                for (i, s) in sub.chunks_exact(4).enumerate() {
                    hist[base + i] += s[0] + s[1] + s[2] + s[3];
                }
                // Verbatim collection only runs when code 0 was actually
                // emitted; fully predictable blocks skip the whole pass.
                if min_code == 0 {
                    for (&code, &x) in quant.iter().zip(values) {
                        if code == 0 {
                            unpred.push(x);
                        }
                    }
                }
            }
            (min_code, max_code)
        }

        pub fn compress_temporal_into(
            &self,
            data: &[f64],
            bound: ErrorBound,
            max_order: DeltaMode,
            force_anchor: bool,
            state: &mut SzTemporalState,
            out: &mut Vec<u8>,
        ) -> Result<DeltaMode> {
            let eb = bound.value();
            if !(eb.is_finite() && eb > 0.0) {
                return Err(CompressError::InvalidBound(eb));
            }

            out.reserve(data.len() / 2 + 64);
            out.push(CODEC_ID);
            out.push(TEMPORAL_VERSION);
            bytes::put_u64(out, data.len() as u64);

            // The mode byte sits right after the error bound for every
            // transform; it is decided after the candidate encodings are
            // sized, so a placeholder is written now and patched below.
            let mode = match bound {
                ErrorBound::Abs(abs) => {
                    out.push(Transform::Identity as u8);
                    bytes::put_f64(out, abs);
                    let mode_pos = out.len();
                    out.push(DeltaMode::None as u8);
                    let mode = Self::compress_abs_temporal(
                        data,
                        abs,
                        StateKey {
                            transform: Transform::Identity as u8,
                            n_codes: data.len(),
                        },
                        max_order,
                        force_anchor,
                        0,
                        0,
                        state,
                        out,
                    );
                    state.zeros1.clear();
                    state.signs1.clear();
                    out[mode_pos] = mode as u8;
                    mode
                }
                ErrorBound::ValueRangeRel(rel) => {
                    let (min, max) = min_max(data);
                    let range = (max - min).abs();
                    let abs = if range > 0.0 {
                        rel * range
                    } else {
                        rel.max(f64::MIN_POSITIVE)
                    };
                    out.push(Transform::Identity as u8);
                    bytes::put_f64(out, abs);
                    let mode_pos = out.len();
                    out.push(DeltaMode::None as u8);
                    let mode = Self::compress_abs_temporal(
                        data,
                        abs,
                        StateKey {
                            transform: Transform::Identity as u8,
                            n_codes: data.len(),
                        },
                        max_order,
                        force_anchor,
                        0,
                        0,
                        state,
                        out,
                    );
                    state.zeros1.clear();
                    state.signs1.clear();
                    out[mode_pos] = mode as u8;
                    mode
                }
                ErrorBound::PointwiseRel(rel) => {
                    out.push(Transform::Log as u8);
                    let log_eb = rel.ln_1p();
                    if !(log_eb.is_finite() && log_eb > 0.0) {
                        return Err(CompressError::InvalidBound(rel));
                    }
                    bytes::put_f64(out, rel);
                    let mode_pos = out.len();
                    out.push(DeltaMode::None as u8);

                    let mut signs = BitWriter::with_capacity(data.len() / 8 + 1);
                    let mut zeros = BitWriter::with_capacity(data.len() / 8 + 1);
                    let mut logs: Vec<f64> = Vec::with_capacity(data.len());
                    for &x in data {
                        zeros.write_bit(x == 0.0);
                        signs.write_bit(x.is_sign_negative());
                        if x != 0.0 {
                            logs.push(x.abs().ln());
                        }
                    }
                    let zero_bytes = zeros.into_bytes();
                    let sign_bytes = signs.into_bytes();

                    // A delta stream inherits each bitmap from the prior link
                    // when it is byte-identical (the common case: zero and
                    // sign patterns of an iterative solve are stable), paying
                    // one flag byte instead of the raw section.  The raw /
                    // delta side-channel costs feed the mode decision, so a
                    // stream whose bitmaps dominate can still pick delta.
                    let same_zero = !force_anchor && state.zeros1 == zero_bytes;
                    let same_sign = !force_anchor && state.signs1 == sign_bytes;
                    let raw_zero = 8 + zero_bytes.len();
                    let raw_sign = 8 + sign_bytes.len();
                    let side_raw = raw_zero + raw_sign;
                    let side_delta = (1 + if same_zero { 0 } else { raw_zero })
                        + (1 + if same_sign { 0 } else { raw_sign });

                    // The side-channel layout depends on the winning mode,
                    // which is only known after the blocks are sized — encode
                    // the container into a scratch buffer first.
                    //
                    // The temporal delta applies to the log-magnitude
                    // sub-stream; a changed zero pattern changes `n_codes`
                    // and falls back to an anchor via the state key.
                    let mut container = Vec::new();
                    let mode = Self::compress_abs_temporal(
                        &logs,
                        log_eb,
                        StateKey {
                            transform: Transform::Log as u8,
                            n_codes: logs.len(),
                        },
                        max_order,
                        force_anchor,
                        side_raw,
                        side_delta,
                        state,
                        &mut container,
                    );
                    out[mode_pos] = mode as u8;
                    if mode == DeltaMode::None {
                        bytes::put_u64(out, zero_bytes.len() as u64);
                        out.extend_from_slice(&zero_bytes);
                        bytes::put_u64(out, sign_bytes.len() as u64);
                        out.extend_from_slice(&sign_bytes);
                    } else {
                        out.push(u8::from(same_zero));
                        if !same_zero {
                            bytes::put_u64(out, zero_bytes.len() as u64);
                            out.extend_from_slice(&zero_bytes);
                        }
                        out.push(u8::from(same_sign));
                        if !same_sign {
                            bytes::put_u64(out, sign_bytes.len() as u64);
                            out.extend_from_slice(&sign_bytes);
                        }
                    }
                    bytes::put_u64(out, logs.len() as u64);
                    out.extend_from_slice(&container);
                    state.zeros1 = zero_bytes;
                    state.signs1 = sign_bytes;
                    mode
                }
            };
            Ok(mode)
        }

        fn compress_abs_temporal(
            values: &[f64],
            abs_eb: f64,
            key: StateKey,
            max_order: DeltaMode,
            force_anchor: bool,
            side_raw: usize,
            side_delta: usize,
            state: &mut SzTemporalState,
            out: &mut Vec<u8>,
        ) -> DeltaMode {
            let code_n = values.len();
            let nblocks = code_n.div_ceil(PAR_BLOCK);
            let shape_ok = state.key == Some(key) && state.codes1.len() == code_n;
            let mut prior1_ok = !force_anchor && max_order != DeltaMode::None && shape_ok;

            // The delta tail XORs each unpredictable value against the prior
            // snapshot's value at the same element position, so each block
            // needs its slice of the retained values: the offset is the number
            // of reserved (code 0) bins in the prior codes before the block.
            let mut unpred_offsets = Vec::new();
            if prior1_ok {
                unpred_offsets = Self::unpred_offsets(&state.codes1);
                // Defensive: a retained value per reserved bin, or no priors.
                prior1_ok = state.unpred1.len() == unpred_offsets[nblocks];
            }
            let prior2_ok = prior1_ok
                && max_order == DeltaMode::Order2
                && state.prev2_valid
                && state.codes2.len() == code_n;

            let blocks: Vec<TemporalBlock> = {
                let prev1 = prior1_ok.then_some(state.codes1.as_slice());
                let prev2 = prior2_ok.then_some(state.codes2.as_slice());
                let prev_unpred = prior1_ok.then_some(state.unpred1.as_slice());
                map_blocks(nblocks, |b| {
                    let start = b * PAR_BLOCK;
                    let end = ((b + 1) * PAR_BLOCK).min(code_n);
                    Self::encode_block_temporal(
                        &values[start..end],
                        abs_eb,
                        prev1.map(|p| &p[start..end]),
                        prev2.map(|p| &p[start..end]),
                        prev_unpred.map(|u| &u[unpred_offsets[b]..unpred_offsets[b + 1]]),
                    )
                })
            };

            // Stream-wide winner by total stream bytes (blocks plus the side
            // channels each outcome would carry); strict `<` prefers the
            // lower order (and hence an anchor) on ties.
            let direct_total: usize = blocks.iter().map(|t| t.direct.len()).sum();
            let mut best = (direct_total + side_raw, DeltaMode::None);
            if prior1_ok {
                let total = blocks
                    .iter()
                    .map(|t| t.delta1.as_ref().map_or(0, Vec::len))
                    .sum::<usize>()
                    + side_delta;
                if total < best.0 {
                    best = (total, DeltaMode::Order1);
                }
            }
            if prior2_ok {
                let total = blocks
                    .iter()
                    .map(|t| t.delta2.as_ref().map_or(0, Vec::len))
                    .sum::<usize>()
                    + side_delta;
                if total < best.0 {
                    best = (total, DeltaMode::Order2);
                }
            }
            let mode = best.1;

            // Rotate this snapshot's codes into the retained state: the old
            // `codes1` buffer becomes `codes2` (valid only if it belonged to
            // the same stream shape) and the freed buffer absorbs the new
            // codes — no steady-state reallocation.
            std::mem::swap(&mut state.codes1, &mut state.codes2);
            // The one rule newer than this oracle: an anchor, forced or
            // chosen, is no second-order base (a chain is stored from its
            // anchor on).
            state.prev2_valid = shape_ok && mode != DeltaMode::None;
            state.codes1.clear();
            state.codes1.reserve(code_n);
            state.unpred1.clear();
            let mut chosen = Vec::with_capacity(nblocks);
            for t in blocks {
                state.codes1.extend_from_slice(&t.codes);
                state.unpred1.extend_from_slice(&t.unpred);
                chosen.push(match mode {
                    DeltaMode::None => t.direct,
                    DeltaMode::Order1 => t.delta1.expect("order-1 candidate exists"),
                    DeltaMode::Order2 => t.delta2.expect("order-2 candidate exists"),
                });
            }
            state.key = Some(key);
            write_container(out, &chosen);
            mode
        }

        fn encode_block_temporal(
            values: &[f64],
            abs_eb: f64,
            prev1: Option<&[u32]>,
            prev2: Option<&[u32]>,
            prev_unpred: Option<&[f64]>,
        ) -> TemporalBlock {
            QUANT_SCRATCH.with(|q| {
                UNPRED_SCRATCH.with(|u| {
                    HIST_SCRATCH.with(|h| {
                        let quant = &mut q.borrow_mut();
                        let unpred = &mut u.borrow_mut();
                        let hist = &mut h.borrow_mut();
                        if hist.is_empty() {
                            hist.resize(N_CODES, 0);
                        }
                        let (lo, hi) = Self::quantize_block(values, abs_eb, quant, unpred, hist);
                        let mut direct = Vec::with_capacity(values.len() / 2 + 32);
                        huffman::encode_block_from_hist_range(quant, hist, lo, hi, &mut direct);
                        Self::append_unpred(&mut direct, unpred);
                        let delta1 = prev1.map(|p1| {
                            Self::encode_delta_block(
                                quant,
                                p1,
                                None,
                                unpred,
                                prev_unpred.expect("order-1 prior carries its values"),
                            )
                        });
                        let delta2 = prev2.map(|p2| {
                            Self::encode_delta_block(
                                quant,
                                prev1.expect("order-2 prior implies order-1 prior"),
                                Some(p2),
                                unpred,
                                prev_unpred.expect("order-2 prior carries its values"),
                            )
                        });
                        TemporalBlock {
                            codes: quant.clone(),
                            unpred: unpred.clone(),
                            direct,
                            delta1,
                            delta2,
                        }
                    })
                })
            })
        }

        fn encode_delta_block(
            codes: &[u32],
            prev1: &[u32],
            prev2: Option<&[u32]>,
            unpred: &[f64],
            prev_unpred: &[f64],
        ) -> Vec<u8> {
            DELTA_SCRATCH.with(|d| {
                DELTA_HIST_SCRATCH.with(|h| {
                    let syms = &mut d.borrow_mut();
                    let hist = &mut h.borrow_mut();
                    match prev2 {
                        None => delta::encode_order1(codes, prev1, syms),
                        Some(p2) => delta::encode_order2(codes, prev1, p2, syms),
                    }
                    let (lo, hi) = syms.iter().fold((u32::MAX, 0), |(l, h), &s| (l.min(s), h.max(s)));
                    if lo <= hi {
                        let need = hi as usize + 1;
                        if hist.len() < need {
                            hist.resize(need, 0);
                        }
                        scatter_hist(syms, lo, hi, hist);
                    }
                    let mut out = Vec::with_capacity(codes.len() / 8 + 32);
                    huffman::encode_block_from_hist_range(syms, hist, lo, hi, &mut out);
                    Self::append_unpred_delta(&mut out, codes, prev1, unpred, prev_unpred);
                    out
                })
            })
        }

        fn append_unpred(out: &mut Vec<u8>, unpred: &[f64]) {
            bytes::put_varint(out, unpred.len() as u64);
            for &v in unpred {
                bytes::put_f64(out, v);
            }
        }

        fn append_unpred_delta(
            out: &mut Vec<u8>,
            codes: &[u32],
            prev_codes: &[u32],
            unpred: &[f64],
            prev_unpred: &[f64],
        ) {
            bytes::put_varint(out, unpred.len() as u64);
            if unpred.is_empty() {
                return;
            }
            let mut xors = Vec::with_capacity(unpred.len());
            let mut cur = 0usize;
            let mut prev = 0usize;
            for (p, &c) in codes.iter().enumerate() {
                let prev_zero = prev_codes[p] == 0;
                if c == 0 {
                    let base = if prev_zero { prev_unpred[prev] } else { 0.0 };
                    xors.push(unpred[cur].to_bits() ^ base.to_bits());
                    cur += 1;
                }
                prev += usize::from(prev_zero);
            }
            debug_assert_eq!(
                cur,
                unpred.len(),
                "one reserved bin per unpredictable value"
            );
            let mut plane = Vec::with_capacity(xors.len());
            for j in 0..8 {
                plane.clear();
                plane.extend(xors.iter().map(|x| ((x >> (8 * j)) & 0xff) as u32));
                huffman::encode_block_into(&plane, out);
            }
        }

        fn unpred_offsets(codes: &[u32]) -> Vec<usize> {
            let nblocks = codes.len().div_ceil(PAR_BLOCK);
            let mut offs = Vec::with_capacity(nblocks + 1);
            offs.push(0usize);
            let mut zeros = 0usize;
            for (i, &c) in codes.iter().enumerate() {
                zeros += usize::from(c == 0);
                if (i + 1) % PAR_BLOCK == 0 {
                    offs.push(zeros);
                }
            }
            if offs.len() < nblocks + 1 {
                offs.push(zeros);
            }
            offs
        }
    }

    fn scatter_hist(syms: &[u32], lo: u32, hi: u32, hist: &mut [u32]) {
        let base = lo as usize;
        let span = (hi - lo) as usize + 1;
        let mut sub = vec![0u32; span * 4];
        let mut chunks = syms.chunks_exact(4);
        for c in &mut chunks {
            sub[(c[0] as usize - base) * 4] += 1;
            sub[(c[1] as usize - base) * 4 + 1] += 1;
            sub[(c[2] as usize - base) * 4 + 2] += 1;
            sub[(c[3] as usize - base) * 4 + 3] += 1;
        }
        for &s in chunks.remainder() {
            sub[(s as usize - base) * 4] += 1;
        }
        for (i, s) in sub.chunks_exact(4).enumerate() {
            hist[base + i] += s[0] + s[1] + s[2] + s[3];
        }
    }

    fn min_max_lanes(data: &[f64]) -> (f64, f64) {
        let mut mn = [f64::INFINITY; 8];
        let mut mx = [f64::NEG_INFINITY; 8];
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            for i in 0..8 {
                mn[i] = mn[i].min(c[i]);
                mx[i] = mx[i].max(c[i]);
            }
        }
        for &v in chunks.remainder() {
            mn[0] = mn[0].min(v);
            mx[0] = mx[0].max(v);
        }
        (
            mn.iter().copied().fold(f64::INFINITY, f64::min),
            mx.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        )
    }

    /// The parent ran the lanes per pool chunk above one block; min and max
    /// are exact, so one pass returns the same range.
    fn min_max(data: &[f64]) -> (f64, f64) {
        min_max_lanes(data)
    }
}
