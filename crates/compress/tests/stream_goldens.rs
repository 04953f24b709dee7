//! Absolute goldens of the SZ stream bytes and of the values they decode
//! to, at the encoder's partition edges: lengths one short of, at and one
//! past a pool chunk (8,192 values) and a block (65,536 values), two
//! blocks and a ragged third, zero runs straddling chunk and block edges
//! (which shift the log stream's own edges under the point-wise-relative
//! transform), and NaN, ±∞, subnormals and 1e300 spikes — under all three
//! bound kinds.  An encoder or decoder rewrite must leave every byte and
//! every decoded bit where it is, at whatever pool size `LCR_NUM_THREADS`
//! sets.

use lcr_compress::{Codec, ErrorBound, SzCompressor};

/// Values per pool chunk of the encoder's element-wise passes.
const CHUNK: usize = 8192;
/// Values per independently coded block.
const PAR_BLOCK: usize = 65_536;

const LENGTHS: [usize; 15] = [
    0,
    1,
    2,
    3,
    65,
    CHUNK - 1,
    CHUNK,
    CHUNK + 1,
    3 * CHUNK + 5,
    PAR_BLOCK - 1,
    PAR_BLOCK,
    PAR_BLOCK + 1,
    PAR_BLOCK + 40,
    2 * PAR_BLOCK,
    2 * PAR_BLOCK + CHUNK + 7,
];

const BOUNDS: [ErrorBound; 3] = [
    ErrorBound::Abs(1e-6),
    ErrorBound::ValueRangeRel(1e-5),
    ErrorBound::PointwiseRel(1e-4),
];

/// A converged-looking iterate: smooth, positive, no zeros.
fn smooth(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64 / 977.0;
            2.0 + t.sin() + 0.25 * (3.1 * t).cos()
        })
        .collect()
}

/// Signed smooth values with zero runs across chunk and block edges, so
/// that the log stream's chunks and blocks start at shifted data indices,
/// a run of 40 zeros that makes `PAR_BLOCK + 40` values a log stream of
/// exactly one block, subnormals and ±1e300 spikes.
fn signed(n: usize) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / 613.0;
            (t.sin() + 0.1) * 10f64.powi((i / 5000 % 5) as i32 - 2)
        })
        .collect();
    let runs = [
        (CHUNK - 3, CHUNK + 3),
        (2 * CHUNK - 64, 2 * CHUNK + 64),
        (PAR_BLOCK - 5, PAR_BLOCK + 35),
        (PAR_BLOCK + CHUNK - 1, PAR_BLOCK + CHUNK + 1),
        (2 * PAR_BLOCK - 2, 2 * PAR_BLOCK + 2),
    ];
    for (start, end) in runs {
        for x in v.iter_mut().take(end).skip(start) {
            *x = 0.0;
        }
    }
    for (i, x) in v.iter_mut().enumerate() {
        match i % 4099 {
            7 => *x = 1e300,
            8 => *x = -1e300,
            9 => *x = 5e-324,
            10 => *x = -2.2e-310,
            11 => *x = -0.0,
            _ => {}
        }
    }
    v
}

/// [`signed`] with NaN and ±∞ besides.
fn specials(n: usize) -> Vec<f64> {
    let mut v = signed(n);
    for (i, x) in v.iter_mut().enumerate() {
        match i % 3001 {
            100 => *x = f64::NAN,
            101 => *x = f64::INFINITY,
            102 => *x = f64::NEG_INFINITY,
            _ => {}
        }
    }
    v
}

/// FNV-1a over `words`, continuing from `h`.
fn fnv(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(h, |h, w| (h ^ w).wrapping_mul(0x0100_0000_01b3))
}

/// `(total stream bytes, stream fingerprint, decoded fingerprint)`.
type Row = (usize, u64, u64);

/// The [`Row`] of `family` at every length of [`LENGTHS`] under `bound`.
fn fingerprint(family: fn(usize) -> Vec<f64>, bound: ErrorBound) -> Row {
    let sz = SzCompressor::new();
    let (mut total, mut stream, mut decoded) = (0, 0xcbf2_9ce4_8422_2325, 0xcbf2_9ce4_8422_2325);
    for n in LENGTHS {
        let data = family(n);
        let at = format!("{bound:?}, n = {n}");
        let mut bytes = Vec::new();
        sz.encode_into(&data, bound, &mut bytes).expect(&at);
        let values = sz.decode(&bytes, n).expect(&at);
        assert_eq!(values.len(), n, "{at}");
        total += bytes.len();
        stream = fnv(stream, [bytes.len() as u64]);
        stream = fnv(stream, bytes.iter().map(|&b| u64::from(b)));
        decoded = fnv(decoded, values.iter().map(|v| v.to_bits()));
    }
    (total, stream, decoded)
}

/// One row per family × bound, in [`BOUNDS`] order.
const GOLDENS: [(&str, [Row; 3]); 3] = [
    ("smooth", [
        (172421, 0xf57a360f23dbd841, 0x571b59fcf6d19cd9),
        (127514, 0x14fe94d8c6e6c54d, 0xd85aafe21bbe1c52),
        (129468, 0x0c692168e312230a, 0xfe3ebd1a180e2694),
    ]),
    ("signed", [
        (329882, 0xf860e2da592590de, 0x3ea75adbb3c8e2d0),
        (76004, 0xd54a2aa11b105d00, 0x3cfa18491a120624),
        (173301, 0xe921051e1f736b11, 0x50717344f9855549),
    ]),
    ("specials", [
        (338263, 0x4a9b8e24cd27bd94, 0x34d0a3254d2ce6d4),
        (4726984, 0x89b6b6c906140191, 0xe339de071fb4ef97),
        (182473, 0x62ef89c1c7a0d887, 0xb5a58c06399ceb4c),
    ]),
];

#[test]
fn streams_and_decodes_at_partition_edges_are_pinned() {
    if std::env::var("LCR_NUM_THREADS").is_err() {
        rayon::initialize_pool(4);
    }
    let families: [fn(usize) -> Vec<f64>; 3] = [smooth, signed, specials];
    let got: Vec<(&str, Vec<Row>)> = GOLDENS
        .iter()
        .zip(families)
        .map(|(&(name, _), family)| {
            (name, BOUNDS.iter().map(|&bound| fingerprint(family, bound)).collect())
        })
        .collect();
    let golden: Vec<(&str, Vec<Row>)> =
        GOLDENS.iter().map(|(name, rows)| (*name, rows.to_vec())).collect();
    let table: Vec<String> = got
        .iter()
        .map(|(name, rows)| {
            let rows: Vec<String> =
                rows.iter().map(|(n, s, d)| format!("({n}, {s:#018x}, {d:#018x})")).collect();
            format!("(\"{name}\", [{}]),", rows.join(", "))
        })
        .collect();
    assert_eq!(got, golden, "observed:\n{}", table.join("\n"));
}
