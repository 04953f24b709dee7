//! The checkpoint store, with a crash-consistent file format.
//!
//! [`DiskStore`] is the one store of this crate: every committed
//! checkpoint becomes one self-describing file behind a
//! [`StorageBackend`].  Over [`OsBackend`] that is the durable tier — a
//! *fresh* process can reopen the directory, validate the files and resume
//! from them; over [`MemBackend`](crate::backend::MemBackend) it is the
//! in-memory tier of [`FtiContext`](crate::FtiContext), which survives an
//! in-process failure and evaporates with the process.  Both tiers share
//! the format, the CRC validation, the retention rule and the chain walk
//! below.
//!
//! # File format (version 2, all integers little-endian)
//!
//! | offset | field |
//! |---|---|
//! | 0  | magic `LCRCKPT0` (8 bytes) |
//! | 8  | format version `u32` |
//! | 12 | metadata length `M` `u32` |
//! | 16 | metadata block (`M` bytes, layout below) |
//! | 16+M | metadata CRC32 `u32` over bytes `[0, 16+M)` |
//! | 20+M | payloads, concatenated in segment-table order |
//!
//! Metadata block: checkpoint id `u64` · iteration `u64` · completed-at
//! `f64` bits · storage level `u8` (always 3, FTI's L4; any other value is
//! corrupt) · original bytes `u64` · **encoding tag `u8`** (0 = anchor,
//! 1/2 = temporal delta of that order) · **base checkpoint id `u64`**
//! (*only when the tag is 1 or 2*) ·
//! strategy tag (`u16` length + UTF-8) · scalar count `u32` + per scalar
//! (`u16` name length + name + `f64` bits) · segment count `u32` + per
//! segment (`u16` name length + name + payload length `u64` + payload
//! CRC32 `u32`).
//!
//! Files of any other format version are rejected as unsupported.
//!
//! # Delta chains
//!
//! A delta-encoded checkpoint stores temporally delta-coded payload
//! streams that decode only against its base checkpoint's streams
//! (see `lcr-compress`); the base link is recorded in the header.
//! Two rules keep the durable tier consistent with that dependency:
//!
//! * **Retention** evicts whole chains: the oldest file is evicted only
//!   together with every file that (transitively) delta-depends on it, so
//!   a live delta never loses its base — the window temporarily stretches
//!   past `retain` instead ([`DiskStore::register`]).  The first file a
//!   commit evicts is renamed to the next checkpoint's `.tmp` (ids are
//!   never reused, so the name is that commit's alone), and the next write
//!   overwrites it in place, so a steady-state commit reuses the blocks of
//!   the file it retires instead of freeing one file's and allocating
//!   another's.  Further evictees, and an evictee that cannot be renamed,
//!   are removed.
//! * **Recovery** returns whole chains: [`DiskStore::latest_valid_chain`]
//!   walks candidates newest→oldest, follows base links back to the
//!   nearest anchor, and CRC-validates *every* member.  If any member is
//!   corrupt the whole dependent chain is abandoned and recovery falls
//!   back to the newest older complete chain.
//!
//! # Atomicity and crash consistency
//!
//! * A checkpoint is written to `<name>.tmp`, `fsync`ed, then `rename`d to
//!   its final name (and the directory is fsynced best-effort): the rename
//!   is the commit point, so a crash mid-write leaves only a `.tmp` file
//!   that [`DiskStore::open`] discards.  A complete file never coexists
//!   with a partial one under the same final name.  Recycling adds one
//!   rename outside the commit, of an evicted checkpoint to the next
//!   `.tmp`; should a crash keep the bytes written into that file but not
//!   the rename, the old name holds a checkpoint whose header names
//!   another id, and [`DiskStore::open`] indexes it as corrupt.
//! * The segment table pins the exact file length, the metadata CRC covers
//!   everything up to the payloads and each payload carries its own CRC32
//!   — a truncated, extended or bit-flipped file is rejected, and
//!   [`DiskStore::latest_valid`] falls back to the next-newest complete
//!   checkpoint (FTI's rule: only a *completed* write is recoverable).
//!
//! # Write-behind
//!
//! There is one write path, [`DiskStore::push_from_buffer`].  With
//! [`DiskStore::set_write_behind`] it spawns one I/O thread per write,
//! which runs the same `write_checkpoint` a synchronous push runs inline,
//! and hands the caller back the previous write's arena in exchange for
//! the one it takes, so file I/O overlaps the next solver iterations.  At
//! most one write is in flight (double buffering): the next push,
//! [`DiskStore::flush`], any recovery, [`DiskStore::discard_newest`] and
//! the store's drop first join it, so recovery never races a half-written
//! file.  A failed write invalidates its own checkpoint and surfaces on the
//! next push or flush; a panic on the I/O thread invalidates it and
//! re-raises on the caller at the join.

use crate::backend::{OsBackend, RetryPolicy, StorageBackend};
use crate::store::{CheckpointBuffer, CheckpointEncoding, CheckpointMetadata};
use crate::{CkptError, Result};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 8] = *b"LCRCKPT0";
/// The on-disk format version written and read (2 carries the
/// anchor-vs-delta encoding fields).
const FORMAT_VERSION: u32 = 2;

/// The IEEE polynomial in the CRC's reflected bit order (bit 31 is `x^0`).
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables of the IEEE polynomial: `[0]` is the byte-at-a-time
/// table, `[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const fn make_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1usize;
    while k < 8 {
        let mut i = 0usize;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = make_crc_tables();

/// `a·b mod P` over GF(2), both in the reflected bit order.
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut m = 1u32 << 31;
    while m != 0 {
        if a & m != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        m >>= 1;
    }
    product
}

/// `[j]` is `x^(8·2^j) mod P`: the shift past `2^j` zero bytes.
const fn make_x8n_table() -> [u32; 64] {
    let mut table = [0u32; 64];
    let mut p = 1u32 << (31 - 8); // x^8
    let mut j = 0;
    while j < 64 {
        table[j] = p;
        p = multmodp(p, p);
        j += 1;
    }
    table
}

static X8N_TABLE: [u32; 64] = make_x8n_table();

/// `x^(8n) mod P`: the shift past `n` zero bytes, one product per set bit
/// of `n`.
fn x8nmodp(mut n: usize) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut j = 0;
    while n != 0 {
        if n & 1 != 0 {
            p = multmodp(X8N_TABLE[j], p);
        }
        n >>= 1;
        j += 1;
    }
    p
}

/// `crc32(A‖B)` from `crc32(A)`, `crc32(B)` and `|B|` (zlib's
/// `crc32_combine`): A's CRC shifted past `|B|` zero bytes, plus B's.
fn crc32_combine(crc_a: u32, crc_b: u32, len_b: usize) -> u32 {
    multmodp(x8nmodp(len_b), crc_a) ^ crc_b
}

/// One slicing-by-8 step: the register after the eight bytes of `word`
/// (little-endian), from `crc`.
#[inline(always)]
fn step8(crc: u32, word: u64) -> u32 {
    let t = &CRC_TABLES;
    let lo = crc ^ word as u32;
    let hi = (word >> 32) as u32;
    t[7][(lo & 0xFF) as usize]
        ^ t[6][(lo >> 8 & 0xFF) as usize]
        ^ t[5][(lo >> 16 & 0xFF) as usize]
        ^ t[4][(lo >> 24) as usize]
        ^ t[3][(hi & 0xFF) as usize]
        ^ t[2][(hi >> 8 & 0xFF) as usize]
        ^ t[1][(hi >> 16 & 0xFF) as usize]
        ^ t[0][(hi >> 24) as usize]
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// The register after `bytes` from `crc`, eight bytes a step (no
/// inversion on either side).
fn advance(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        crc = step8(crc, word(w));
    }
    for &b in words.remainder() {
        crc = CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// Bytes per lane below which [`crc32`] runs one lane: the three combines
/// cost a few hundred table-free steps, which a shorter buffer would not
/// earn back.
const MIN_LANE_BYTES: usize = 256;

/// IEEE CRC-32 (the zip/PNG polynomial) of `bytes`.
///
/// One slicing-by-8 lane waits on its own table loads at every step, so a
/// buffer of at least four [`MIN_LANE_BYTES`] lanes is cut into four
/// contiguous quarters (the first three a multiple of eight bytes, the
/// last taking the rest) whose CRCs advance side by side, and the four are
/// merged with the GF(2) combine — `crc32(A‖B)` from `crc32(A)`,
/// `crc32(B)` and `|B|`.  The value is the one-lane value at every length.
pub fn crc32(bytes: &[u8]) -> u32 {
    let lane = (bytes.len() / 4) & !7;
    if lane < MIN_LANE_BYTES {
        return !advance(!0, bytes);
    }
    let (a, rest) = bytes.split_at(lane);
    let (b, rest) = rest.split_at(lane);
    let (c, d) = rest.split_at(lane);
    let mut s = [!0u32; 4];
    let quads = a
        .chunks_exact(8)
        .zip(b.chunks_exact(8))
        .zip(c.chunks_exact(8))
        .zip(d.chunks_exact(8));
    for (((wa, wb), wc), wd) in quads {
        s = [
            step8(s[0], word(wa)),
            step8(s[1], word(wb)),
            step8(s[2], word(wc)),
            step8(s[3], word(wd)),
        ];
    }
    let ab = crc32_combine(!s[0], !s[1], lane);
    let abc = crc32_combine(ab, !s[2], lane);
    crc32_combine(abc, !advance(s[3], &d[lane..]), d.len())
}

/// The header's storage-level byte: every checkpoint goes to FTI's L4, the
/// PFS, level 3 of 0–3.
const PFS_LEVEL: u8 = 3;

fn io_err(context: &str, err: std::io::Error) -> CkptError {
    CkptError::Io(format!("{context}: {err}"))
}

/// One checkpoint read back from the durable tier: everything a fresh
/// process needs to resume — metadata, the strategy tag recorded by the
/// writer, the checkpointed scalars, and the encoded payloads.
#[derive(Debug, Clone, PartialEq)]
// lcr-analyze: allow(dead-public-item): return type of `latest_valid`/`read_checkpoint_file`; callers take it by inference
pub struct DiskCheckpoint {
    /// Descriptive metadata (unscaled: real stored byte counts).
    pub metadata: CheckpointMetadata,
    /// Name of the strategy that encoded the payloads
    /// (`CheckpointStrategy::name()` in `lcr-core`).
    pub tag: String,
    /// Scalars captured alongside the vectors (exact-recovery state).
    pub scalars: Vec<(String, f64)>,
    /// Encoded payload per variable id.
    pub payloads: Vec<(String, Vec<u8>)>,
}

/// What a checkpoint file's header records: the metadata, the writing
/// strategy's tag and the scalars.
#[derive(Debug, Clone)]
struct Header {
    metadata: CheckpointMetadata,
    tag: String,
    scalars: Vec<(String, f64)>,
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    let len = u16::try_from(s.len()).expect("name longer than 65535 bytes");
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

/// Serializes the header (magic + version + metadata + metadata CRC) for a
/// checkpoint whose payloads are the segments of `buffer`, with the
/// payload CRCs `buffer` computes once for every tier.
fn encode_header(header: &Header, buffer: &CheckpointBuffer) -> Vec<u8> {
    let meta = &header.metadata;
    let mut block = Vec::with_capacity(64 + 32 * buffer.n_variables());
    block.extend_from_slice(&meta.id.to_le_bytes());
    block.extend_from_slice(&(meta.iteration as u64).to_le_bytes());
    block.extend_from_slice(&meta.completed_at.to_bits().to_le_bytes());
    block.push(PFS_LEVEL);
    block.extend_from_slice(&(meta.original_bytes as u64).to_le_bytes());
    match meta.encoding {
        CheckpointEncoding::Anchor => block.push(0),
        CheckpointEncoding::Delta { base_id, order } => {
            block.push(order);
            block.extend_from_slice(&base_id.to_le_bytes());
        }
    }
    put_str(&mut block, &header.tag);
    block.extend_from_slice(&(header.scalars.len() as u32).to_le_bytes());
    for (name, value) in &header.scalars {
        put_str(&mut block, name);
        block.extend_from_slice(&value.to_bits().to_le_bytes());
    }
    block.extend_from_slice(&(buffer.n_variables() as u32).to_le_bytes());
    for ((name, payload), crc) in buffer.segments().zip(buffer.segment_crcs()) {
        put_str(&mut block, name);
        block.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        block.extend_from_slice(&crc.to_le_bytes());
    }

    let mut out = Vec::with_capacity(16 + block.len() + 4);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(block.len() as u32).to_le_bytes());
    out.extend_from_slice(&block);
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    out
}

/// Bounds-checked little-endian reader over a byte slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CkptError::Corrupt("metadata block truncated".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn string(&mut self) -> Result<String> {
        let len = self.u16()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| CkptError::Corrupt("non-UTF-8 name in metadata".into()))
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// Parsed header plus where each payload lives in the file.
struct ParsedHeader {
    header: Header,
    /// `(offset-in-file, crc)` per segment, in `variable_bytes` order.
    segments: Vec<(usize, u32)>,
    /// Expected total file length.
    file_len: usize,
}

fn parse_header(bytes: &[u8], path: &Path) -> Result<ParsedHeader> {
    let corrupt = |msg: &str| CkptError::Corrupt(format!("{}: {msg}", path.display()));
    if bytes.len() < 20 {
        return Err(corrupt("shorter than the fixed header"));
    }
    if bytes[..8] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(corrupt(&format!("unsupported format version {version}")));
    }
    let meta_len = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    let crc_at = 16usize
        .checked_add(meta_len)
        .filter(|&e| e + 4 <= bytes.len())
        .ok_or_else(|| corrupt("metadata length exceeds file"))?;
    let stored_crc = u32::from_le_bytes(bytes[crc_at..crc_at + 4].try_into().expect("4 bytes"));
    if crc32(&bytes[..crc_at]) != stored_crc {
        return Err(corrupt("metadata CRC mismatch"));
    }

    let mut r = Reader::new(&bytes[16..crc_at]);
    let id = r.u64()?;
    let iteration = usize::try_from(r.u64()?)
        .map_err(|_| corrupt("iteration does not fit in usize"))?;
    let completed_at = r.f64()?;
    match r.u8()? {
        PFS_LEVEL => {}
        v => return Err(CkptError::Corrupt(format!("unknown storage level {v}"))),
    }
    let original_bytes = usize::try_from(r.u64()?)
        .map_err(|_| corrupt("original size does not fit in usize"))?;
    let encoding = match r.u8()? {
        0 => CheckpointEncoding::Anchor,
        order @ (1 | 2) => CheckpointEncoding::Delta {
            base_id: r.u64()?,
            order,
        },
        other => return Err(corrupt(&format!("unknown encoding tag {other}"))),
    };
    let tag = r.string()?;
    let n_scalars = r.u32()? as usize;
    let mut scalars = Vec::with_capacity(n_scalars.min(1024));
    for _ in 0..n_scalars {
        let name = r.string()?;
        let value = r.f64()?;
        scalars.push((name, value));
    }
    let n_segments = r.u32()? as usize;
    let mut variable_bytes = Vec::with_capacity(n_segments.min(1024));
    let mut segments = Vec::with_capacity(n_segments.min(1024));
    let mut offset = crc_at + 4;
    for _ in 0..n_segments {
        let name = r.string()?;
        let len = usize::try_from(r.u64()?)
            .map_err(|_| corrupt("payload length does not fit in usize"))?;
        segments.push((offset, r.u32()?));
        variable_bytes.push((name, len));
        offset = offset
            .checked_add(len)
            .ok_or_else(|| corrupt("payload lengths overflow"))?;
    }
    if !r.finished() {
        return Err(corrupt("trailing bytes in metadata block"));
    }
    Ok(ParsedHeader {
        header: Header {
            metadata: CheckpointMetadata {
                id,
                iteration,
                completed_at,
                total_bytes: variable_bytes.iter().map(|(_, b)| *b).sum(),
                original_bytes,
                encoding,
                variable_bytes,
            },
            tag,
            scalars,
        },
        segments,
        file_len: offset,
    })
}

/// Reads and fully validates one checkpoint file: magic, version, metadata
/// CRC, exact file length from the segment table, and every payload CRC.
///
/// # Errors
/// [`CkptError::Io`] if the file cannot be read, [`CkptError::Corrupt`] if
/// any validation fails (a partially written or bit-flipped checkpoint is
/// never returned).
pub fn read_checkpoint_file(path: &Path) -> Result<DiskCheckpoint> {
    read_checkpoint_with(&OsBackend, path)
}

/// [`read_checkpoint_file`] routed through an explicit [`StorageBackend`]
/// (the seam fault injectors and alternative storage tiers plug into).
fn read_checkpoint_with(backend: &dyn StorageBackend, path: &Path) -> Result<DiskCheckpoint> {
    let bytes = backend
        .read(path)
        .map_err(|e| io_err("reading checkpoint", e))?;
    parse_checkpoint_bytes(&bytes, path)
}

/// Validates and decodes one fully-read checkpoint image.
fn parse_checkpoint_bytes(bytes: &[u8], path: &Path) -> Result<DiskCheckpoint> {
    let parsed = parse_header(bytes, path)?;
    if bytes.len() != parsed.file_len {
        return Err(CkptError::Corrupt(format!(
            "{}: file is {} bytes, segment table requires {}",
            path.display(),
            bytes.len(),
            parsed.file_len
        )));
    }
    let Header { metadata, tag, scalars } = parsed.header;
    let mut payloads = Vec::with_capacity(parsed.segments.len());
    let segments = metadata.variable_bytes.iter().zip(parsed.segments);
    for ((name, len), (offset, expected_crc)) in segments {
        let payload = &bytes[offset..offset + len];
        if crc32(payload) != expected_crc {
            return Err(CkptError::Corrupt(format!(
                "{}: payload CRC mismatch for variable {name:?}",
                path.display()
            )));
        }
        payloads.push((name.clone(), payload.to_vec()));
    }
    Ok(DiskCheckpoint {
        metadata,
        tag,
        scalars,
        payloads,
    })
}

/// Writes `header` + `payload` to `tmp`, fsyncs, and renames to `fin` (the
/// commit point); the directory is fsynced best-effort afterwards.  All
/// file I/O goes through `backend` so faults can be injected at each step.
fn write_atomic(
    backend: &dyn StorageBackend,
    tmp: &Path,
    fin: &Path,
    header: &[u8],
    payload: &[u8],
) -> std::io::Result<()> {
    backend.write_file(tmp, &[header, payload])?;
    backend.fsync(tmp)?;
    backend.rename(tmp, fin)?;
    if let Some(dir) = fin.parent() {
        let _ = backend.fsync_dir(dir);
    }
    Ok(())
}

/// One checkpoint write: where the file goes and what goes into it.
struct Job {
    tmp: PathBuf,
    fin: PathBuf,
    header: Header,
    backend: Arc<dyn StorageBackend>,
    retry: RetryPolicy,
}

/// Serialises `job`'s header over `buffer` and commits the file,
/// retrying transient failures; returns the result plus the retry count
/// and backoff schedule for the owning store's accounting.  A synchronous
/// push runs this inline, write-behind on the I/O thread.
fn write_checkpoint(job: &Job, buffer: &CheckpointBuffer) -> (std::io::Result<()>, u32, Vec<f64>) {
    let header = encode_header(&job.header, buffer);
    job.retry.run(|| {
        write_atomic(
            job.backend.as_ref(),
            &job.tmp,
            &job.fin,
            &header,
            buffer.arena_bytes(),
        )
    })
}

/// What a write-behind write hands back when joined: its arena, for the
/// next push to reuse, and `write_checkpoint`'s result and retry counts.
struct JobDone {
    buffer: CheckpointBuffer,
    result: std::io::Result<()>,
    retries: u32,
    backoff: Vec<f64>,
}

#[derive(Debug, Clone)]
struct DiskEntry {
    path: PathBuf,
    /// As the header records it; of a file whose header does not validate,
    /// only the id (from the file name) means anything.
    metadata: CheckpointMetadata,
    /// Header-validated; cleared when a full read later finds corruption or
    /// the write-behind write for this entry fails.
    valid: bool,
}

/// The checkpoint store: push from a [`CheckpointBuffer`], read the newest
/// *complete* checkpoint chain back, and evict stale files beyond the
/// retention limit — durable over [`OsBackend`], in memory over
/// [`MemBackend`](crate::backend::MemBackend).
pub struct DiskStore {
    dir: PathBuf,
    retain: usize,
    next_id: u64,
    entries: VecDeque<DiskEntry>,
    write_behind: bool,
    /// The write-behind write of the newest entry, until joined.
    in_flight: Option<JoinHandle<JobDone>>,
    /// The first deferred write-behind failure since the last flush.
    first_error: Option<CkptError>,
    backend: Arc<dyn StorageBackend>,
    retry: RetryPolicy,
    /// Total transient-I/O retries performed (sync and write-behind).
    io_retries: u64,
    /// Pushes that needed at least one retry but ultimately committed.
    retried_pushes: u64,
    /// Seconds slept before each retry, in order (the backoff schedule).
    backoff_log: Vec<f64>,
    /// Cumulative bytes handed to the durable tier (payloads only).
    pub total_bytes_written: u64,
}

impl std::fmt::Debug for DiskStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskStore")
            .field("dir", &self.dir)
            .field("retain", &self.retain)
            .field("next_id", &self.next_id)
            .field("entries", &self.entries.len())
            .field("write_behind", &self.write_behind)
            .field("io_retries", &self.io_retries)
            .field("total_bytes_written", &self.total_bytes_written)
            .finish()
    }
}

impl DiskStore {
    /// Opens (creating if needed) a checkpoint directory, keeping the
    /// `retain` most recent checkpoints.
    ///
    /// Stray `.tmp` files — the residue of a crash mid-write, or an evicted
    /// checkpoint awaiting the next write — are deleted; existing
    /// checkpoint files are header-validated and indexed so a fresh process
    /// can resume from [`DiskStore::latest_valid`].
    /// Corrupt or incomplete files, and files whose header names another id
    /// than their file name, are kept on disk but never selected.
    ///
    /// # Errors
    /// [`CkptError::Io`] if the directory cannot be created or scanned.
    ///
    /// # Panics
    /// Panics if `retain` is zero.
    pub fn open(dir: impl AsRef<Path>, retain: usize) -> Result<Self> {
        Self::open_with_backend(dir, retain, Arc::new(OsBackend))
    }

    /// [`DiskStore::open`] over an explicit [`StorageBackend`] — the seam
    /// the chaos engine (and any future remote tier) plugs into.  All
    /// subsequent file I/O of this store, including the write-behind
    /// thread's, goes through `backend`.
    ///
    /// # Errors
    /// [`CkptError::Io`] if the directory cannot be created or scanned.
    ///
    /// # Panics
    /// Panics if `retain` is zero.
    pub fn open_with_backend(
        dir: impl AsRef<Path>,
        retain: usize,
        backend: Arc<dyn StorageBackend>,
    ) -> Result<Self> {
        assert!(retain > 0, "must retain at least one checkpoint");
        let dir = dir.as_ref().to_path_buf();
        backend
            .create_dir_all(&dir)
            .map_err(|e| io_err("creating checkpoint directory", e))?;

        let mut entries: Vec<DiskEntry> = Vec::new();
        let listing = backend
            .list_dir(&dir)
            .map_err(|e| io_err("scanning checkpoint directory", e))?;
        for path in listing {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                // A crash interrupted this write before the rename commit
                // point, or this is an evicted checkpoint kept for the
                // next write to overwrite — by construction neither is a
                // checkpoint, and a reopened directory holds checkpoints
                // only.
                let _ = backend.remove_file(&path);
                continue;
            }
            let Some(id) = name
                .strip_prefix("ckpt-")
                .and_then(|rest| rest.strip_suffix(".lcr"))
                .and_then(|digits| digits.parse::<u64>().ok())
            else {
                continue;
            };
            // A header naming another id is an evicted file that took the
            // bytes of the next write while its rename to that write's
            // `.tmp` was lost in a crash: never a checkpoint of this name.
            let (metadata, valid) = match Self::validate_header(backend.as_ref(), &path) {
                Ok(metadata) if metadata.id == id => (metadata, true),
                _ => (
                    CheckpointMetadata {
                        id,
                        iteration: 0,
                        completed_at: 0.0,
                        total_bytes: 0,
                        original_bytes: 0,
                        encoding: CheckpointEncoding::Anchor,
                        variable_bytes: Vec::new(),
                    },
                    false,
                ),
            };
            entries.push(DiskEntry {
                path,
                metadata,
                valid,
            });
        }
        entries.sort_by_key(|e| e.metadata.id);
        let next_id = entries.last().map(|e| e.metadata.id + 1).unwrap_or(0);
        Ok(DiskStore {
            dir,
            retain,
            next_id,
            entries: entries.into(),
            write_behind: false,
            in_flight: None,
            first_error: None,
            backend,
            retry: RetryPolicy::default(),
            io_retries: 0,
            retried_pushes: 0,
            backoff_log: Vec::new(),
            total_bytes_written: 0,
        })
    }

    /// Header validation (magic, version, metadata CRC, file length):
    /// cheap enough for the open-time scan — only the header is read, the
    /// payload region is length-checked via the file size; payload CRCs
    /// are checked when a checkpoint is actually read for recovery.
    fn validate_header(backend: &dyn StorageBackend, path: &Path) -> Result<CheckpointMetadata> {
        let file_len = backend
            .file_len(path)
            .map_err(|e| io_err("statting checkpoint", e))?;
        if file_len < 16 {
            return Err(CkptError::Corrupt(format!(
                "{}: shorter than the fixed header",
                path.display()
            )));
        }
        let fixed = backend
            .read_prefix(path, 16)
            .map_err(|e| io_err("reading checkpoint header", e))?;
        let meta_len = u64::from(u32::from_le_bytes(
            fixed[12..16].try_into().expect("4 bytes"),
        ));
        // Bound the header allocation by the real file size before trusting
        // the length field.
        let header_len = 16 + meta_len + 4;
        if header_len > file_len {
            return Err(CkptError::Corrupt(format!(
                "{}: metadata length exceeds file",
                path.display()
            )));
        }
        let header = backend
            .read_prefix(path, header_len as usize)
            .map_err(|e| io_err("reading checkpoint header", e))?;
        let parsed = parse_header(&header, path)?;
        if file_len != parsed.file_len as u64 {
            return Err(CkptError::Corrupt(format!(
                "{}: incomplete checkpoint ({} of {} bytes)",
                path.display(),
                file_len,
                parsed.file_len
            )));
        }
        Ok(parsed.header.metadata)
    }

    /// Replaces the transient-error retry policy (default:
    /// [`RetryPolicy::default`]).
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Total transient-I/O retries performed so far (reads and writes,
    /// sync and write-behind).
    pub fn io_retries(&self) -> u64 {
        self.io_retries
    }

    /// Pushes that needed at least one retry but ultimately committed.
    pub fn retried_pushes(&self) -> u64 {
        self.retried_pushes
    }

    /// Seconds slept before each retry, in order — the realized backoff
    /// schedule.
    pub fn backoff_log(&self) -> &[f64] {
        &self.backoff_log
    }

    /// Number of (header-)valid checkpoints currently indexed.
    pub fn len(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Whether no valid checkpoint is available.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Metadata of every valid checkpoint, oldest first.
    pub fn metadata(&self) -> Vec<&CheckpointMetadata> {
        self.entries
            .iter()
            .filter(|e| e.valid)
            .map(|e| &e.metadata)
            .collect()
    }

    /// Enables or disables write-behind.  Disabling joins the outstanding
    /// write first and surfaces any deferred I/O error.
    ///
    /// # Errors
    /// [`CkptError::Io`] if a deferred write failed while disabling.
    pub fn set_write_behind(&mut self, enabled: bool) -> Result<()> {
        self.write_behind = enabled;
        if enabled {
            Ok(())
        } else {
            self.flush()
        }
    }

    /// Counts `retries` transient-I/O retries and the `backoff` slept
    /// before them; `committed` says the push they belonged to landed.
    fn account(&mut self, retries: u32, backoff: &[f64], committed: bool) {
        self.io_retries += u64::from(retries);
        self.backoff_log.extend_from_slice(backoff);
        self.retried_pushes += u64::from(committed && retries > 0);
    }

    /// Joins the write in flight, if any, and returns its arena.  A failed
    /// write invalidates its entry and waits in `first_error` for the next
    /// push or flush; a panic on the I/O thread invalidates it and
    /// re-raises here.
    fn join(&mut self) -> Option<CheckpointBuffer> {
        let joined = self.in_flight.take()?.join();
        // The write in flight is the newest entry: it was registered when
        // spawned, every later push joins it first, and retention never
        // evicts the newest entry.
        let id = self.entries.back().expect("a write in flight is indexed").metadata.id;
        let done = joined.unwrap_or_else(|panic| {
            self.invalidate(id);
            std::panic::resume_unwind(panic)
        });
        self.account(done.retries, &done.backoff, done.result.is_ok());
        if let Err(e) = done.result {
            self.invalidate(id);
            let failed = io_err(&format!("writing checkpoint {id}"), e);
            self.first_error.get_or_insert(failed);
        }
        Some(done.buffer)
    }

    /// Waits for the write in flight, if any, to reach disk.
    ///
    /// # Errors
    /// [`CkptError::Io`] carrying the first deferred write error, if any
    /// write failed since the last flush (the failed checkpoint is marked
    /// invalid and will never be selected for recovery).
    pub fn flush(&mut self) -> Result<()> {
        self.join();
        self.first_error.take().map_or(Ok(()), Err)
    }

    /// Indexes the checkpoint written (or being written) at `path`, spends
    /// its id, and applies retention.
    fn register(&mut self, path: PathBuf, metadata: CheckpointMetadata) {
        self.total_bytes_written += metadata.total_bytes as u64;
        self.next_id = metadata.id + 1;
        self.entries.push_back(DiskEntry {
            path,
            metadata,
            valid: true,
        });
        // Retention: drop oldest files until at most `retain` valid
        // checkpoints remain — but only whole dependency chains.  Deleting
        // an anchor while a retained delta still decodes against it would
        // orphan that delta, so the front chain is evicted all-or-nothing
        // and the window temporarily stretches past `retain` when the
        // front chain reaches the newest entry.  Only entries strictly
        // older than the newest are ever popped, and pushes join the
        // previous write-behind write first, so an in-flight file is never
        // evicted.  The first evictee becomes the next write's `.tmp`, for
        // it to overwrite (module docs, *Retention*); the rest, and one
        // whose rename fails, are removed.
        let mut first = true;
        while self.len() > self.retain {
            let chain_len = self.front_chain_len();
            if chain_len >= self.entries.len() {
                break;
            }
            for _ in 0..chain_len {
                let Some(old) = self.entries.pop_front() else {
                    break;
                };
                let tmp = self.tmp_path(self.next_id);
                if std::mem::take(&mut first) && self.backend.rename(&old.path, &tmp).is_ok() {
                    continue;
                }
                let _ = self.backend.remove_file(&old.path);
            }
        }
    }

    /// Where checkpoint `id` is written before its commit rename.
    fn tmp_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{id:010}.lcr.tmp"))
    }

    /// Length of the dependency chain at the front of the index: the
    /// oldest file plus every following file that (directly or
    /// transitively) delta-depends on it.
    fn front_chain_len(&self) -> usize {
        let mut len = 1;
        while len < self.entries.len() {
            let prev_id = self.entries[len - 1].metadata.id;
            match self.entries[len].metadata.encoding {
                CheckpointEncoding::Delta { base_id, .. } if base_id == prev_id => len += 1,
                _ => break,
            }
        }
        len
    }

    /// Resolves `delta_order` into the encoding recorded in the header: a
    /// delta is always coded against the checkpoint pushed immediately
    /// before it (the newest indexed entry at push time).
    ///
    /// # Panics
    /// Panics if a delta is pushed into an empty store — a delta without a
    /// base is undecodable by construction, so this is a caller bug.
    fn encoding_for(&self, delta_order: Option<u8>) -> CheckpointEncoding {
        match delta_order {
            None => CheckpointEncoding::Anchor,
            Some(order) => {
                let base = self
                    .entries
                    .back()
                    .expect("delta checkpoint pushed into an empty disk store");
                CheckpointEncoding::Delta {
                    base_id: base.metadata.id,
                    order,
                }
            }
        }
    }

    /// The write of the next checkpoint: its header — the next id, the
    /// encoding `delta_order` resolves to, `buffer`'s segment sizes — and
    /// the file names it commits through.
    #[allow(clippy::too_many_arguments)]
    fn job_for(
        &self,
        iteration: usize,
        completed_at: f64,
        original_bytes: usize,
        delta_order: Option<u8>,
        tag: &str,
        scalars: &[(String, f64)],
        buffer: &CheckpointBuffer,
    ) -> Job {
        let id = self.next_id;
        let variable_bytes = buffer
            .segments()
            .map(|(name, payload)| (name.to_string(), payload.len()))
            .collect();
        Job {
            tmp: self.tmp_path(id),
            fin: self.dir.join(format!("ckpt-{id:010}.lcr")),
            header: Header {
                metadata: CheckpointMetadata {
                    id,
                    iteration,
                    completed_at,
                    total_bytes: buffer.total_bytes(),
                    original_bytes,
                    encoding: self.encoding_for(delta_order),
                    variable_bytes,
                },
                tag: tag.to_string(),
                scalars: scalars.to_vec(),
            },
            backend: Arc::clone(&self.backend),
            retry: self.retry,
        }
    }

    /// Writes one checkpoint (temp file + fsync + rename), registers it,
    /// and evicts checkpoints beyond the retention limit — the store's one
    /// write path.
    ///
    /// Synchronously, the write is done when this returns and `buffer` is
    /// left as it was.  Under write-behind this first joins the previous
    /// write, then swaps `buffer` for that write's arena (an empty one the
    /// first time) and writes the checkpoint on a new I/O thread, so the
    /// caller encodes the next checkpoint while this one reaches storage.
    ///
    /// `delta_order` of `Some(1 | 2)` records the payloads as temporal
    /// deltas of that order against the newest checkpoint in the store
    /// (see the module docs on delta chains); `None` records an anchor.
    ///
    /// # Errors
    /// [`CkptError::Io`] if a synchronous write fails (nothing is
    /// registered), or if the previous write-behind write failed (this
    /// checkpoint is written all the same).
    ///
    /// # Panics
    /// Panics if a delta is pushed into an empty store, and re-raises a
    /// panic of the previous write's I/O thread.
    #[allow(clippy::too_many_arguments)]
    pub fn push_from_buffer(
        &mut self,
        iteration: usize,
        completed_at: f64,
        original_bytes: usize,
        delta_order: Option<u8>,
        tag: &str,
        scalars: &[(String, f64)],
        buffer: &mut CheckpointBuffer,
    ) -> Result<CheckpointMetadata> {
        let recycled = self.join();
        let deferred_error = self.first_error.take();
        let job = self.job_for(
            iteration,
            completed_at,
            original_bytes,
            delta_order,
            tag,
            scalars,
            buffer,
        );
        let (fin, metadata) = (job.fin.clone(), job.header.metadata.clone());
        if self.write_behind {
            let buffer = std::mem::replace(buffer, recycled.unwrap_or_default());
            let write = thread::Builder::new()
                .name("lcr-ckpt-io".into())
                .spawn(move || {
                    let (result, retries, backoff) = write_checkpoint(&job, &buffer);
                    JobDone { buffer, result, retries, backoff }
                })
                .expect("spawning the checkpoint I/O thread");
            self.in_flight = Some(write);
        } else {
            let (result, retries, backoff) = write_checkpoint(&job, buffer);
            self.account(retries, &backoff, result.is_ok());
            result.map_err(|e| io_err("writing checkpoint", e))?;
        }
        self.register(fin, metadata.clone());
        // The previous write's failure surfaces on the first push after it
        // (its entry is already invalidated).
        deferred_error.map_or(Ok(metadata), Err)
    }

    /// The newest *complete* checkpoint: the last link of
    /// [`DiskStore::latest_valid_chain`].  For anchor-only stores this is
    /// the historical single-file behaviour; a delta checkpoint returned
    /// here still needs the rest of its chain to decode, so chain-aware
    /// callers should use [`DiskStore::latest_valid_chain`] directly.
    ///
    /// # Errors
    /// [`CkptError::NoCheckpoint`] if no complete checkpoint exists.
    pub fn latest_valid(&mut self) -> Result<DiskCheckpoint> {
        let mut chain = self.latest_valid_chain()?;
        Ok(chain.pop().expect("a recovered chain is never empty"))
    }

    /// The newest *complete* checkpoint chain, anchor first: joins any
    /// in-flight write, then scans candidates newest-to-oldest.  For each
    /// candidate the base links are followed back to the nearest anchor
    /// and every member file is fully CRC-validated; the first candidate
    /// whose whole chain passes is returned.  A member that fails
    /// validation is marked invalid, which abandons every chain that
    /// depends on it, and the scan restarts — so a bit-flipped or
    /// truncated anchor makes recovery fall back to the newest older
    /// complete chain rather than returning undecodable deltas.  Nothing
    /// is kept between calls: each one reads the files as they are now.
    ///
    /// # Errors
    /// [`CkptError::NoCheckpoint`] if no complete chain exists.
    pub fn latest_valid_chain(&mut self) -> Result<Vec<DiskCheckpoint>> {
        // Deferred write errors only invalidate their own entry; older
        // checkpoints remain recoverable, so do not surface them here.
        self.join();
        // Each restart invalidates at least one previously valid entry, so
        // the scan terminates.
        'scan: loop {
            for idx in (0..self.entries.len()).rev() {
                if !self.entries[idx].valid {
                    continue;
                }
                let Some(member_idx) = self.chain_indices(idx) else {
                    // A base link is missing or invalid — this candidate
                    // can never decode; try the next-newest.
                    continue;
                };
                let mut links = Vec::with_capacity(member_idx.len());
                for &i in &member_idx {
                    let path = self.entries[i].path.clone();
                    match self.read_with_retry(&path) {
                        Ok(ckpt) => links.push(ckpt),
                        Err(_) => {
                            self.entries[i].valid = false;
                            continue 'scan;
                        }
                    }
                }
                return Ok(links);
            }
            return Err(CkptError::NoCheckpoint);
        }
    }

    /// Fully reads and validates one checkpoint file through the backend,
    /// retrying *transient* read errors per the store's retry policy.
    /// Validation failures (CRC/format) are deterministic and never
    /// retried.
    fn read_with_retry(&mut self, path: &Path) -> Result<DiskCheckpoint> {
        let (bytes, retries, backoff) = self.retry.run(|| self.backend.read(path));
        self.account(retries, &backoff, false);
        let bytes = bytes.map_err(|e| io_err("reading checkpoint", e))?;
        parse_checkpoint_bytes(&bytes, path)
    }

    /// Removes the newest checkpoint, file and index entry, joining any
    /// in-flight write first — the undo of a push the caller's commit
    /// protocol then rejected (a peer failed the epoch).  Its id is not
    /// reused.  If the file cannot be removed the entry stays, marked
    /// invalid, so this store never selects it.
    pub fn discard_newest(&mut self) {
        self.join();
        let Some(mut entry) = self.entries.pop_back() else {
            return;
        };
        if self.backend.remove_file(&entry.path).is_err() {
            entry.valid = false;
            self.entries.push_back(entry);
        }
    }

    /// Marks checkpoint `id` — and with it every delta chained on it — as
    /// never to be selected again: its bytes validated but did not decode.
    /// The file is kept, like one that fails its CRC.
    pub fn invalidate(&mut self, id: u64) {
        if let Some(entry) = self.entries.iter_mut().find(|e| e.metadata.id == id) {
            entry.valid = false;
        }
    }

    /// Entry indices of the chain ending at `idx`, anchor first, or `None`
    /// if any base link is missing from the index or marked invalid.
    fn chain_indices(&self, idx: usize) -> Option<Vec<usize>> {
        let mut chain = vec![idx];
        let mut cur = idx;
        while let CheckpointEncoding::Delta { base_id, .. } = self.entries[cur].metadata.encoding {
            let base = (0..cur)
                .rev()
                .find(|&i| self.entries[i].metadata.id == base_id && self.entries[i].valid)?;
            chain.push(base);
            cur = base;
        }
        chain.reverse();
        Some(chain)
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        if let Some(write) = self.in_flight.take() {
            let _ = write.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use std::fs;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lcr-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_buffer() -> CheckpointBuffer {
        let mut buf = CheckpointBuffer::new();
        buf.push_with("x", |out| out.extend_from_slice(&[1u8, 2, 3, 4, 5]));
        buf.push_with("p", |out| out.extend_from_slice(&[9u8; 40]));
        buf.push_with("empty", |_| ());
        buf
    }

    fn push_sample(store: &mut DiskStore, iteration: usize) -> CheckpointMetadata {
        push_sample_delta(store, iteration, None)
    }

    fn push_sample_delta(
        store: &mut DiskStore,
        iteration: usize,
        delta_order: Option<u8>,
    ) -> CheckpointMetadata {
        let mut buf = sample_buffer();
        store
            .push_from_buffer(
                iteration,
                iteration as f64,
                800,
                delta_order,
                "traditional",
                &[("rho".to_string(), 0.25), ("beta".to_string(), -3.5)],
                &mut buf,
            )
            .unwrap()
    }

    fn newest_file(dir: &Path) -> PathBuf {
        files_in(&OsBackend, dir).pop().expect("at least one checkpoint file")
    }

    /// The checkpoint files of `dir`, oldest first.
    fn files_in(backend: &dyn StorageBackend, dir: &Path) -> Vec<PathBuf> {
        let mut files = backend.list_dir(dir).unwrap();
        files.retain(|p| p.extension().is_some_and(|e| e == "lcr"));
        files.sort();
        files
    }

    /// Runs `case` on a store directory of each backend — a temporary one
    /// on the file system, and one held in memory.
    fn on_each_backend(tag: &str, case: impl Fn(Arc<dyn StorageBackend>, &Path)) {
        let dir = tempdir(tag);
        case(Arc::new(OsBackend), &dir);
        let _ = fs::remove_dir_all(&dir);
        case(Arc::new(MemBackend::default()), Path::new("memory"));
    }

    /// Flips one bit of the last byte of the file at `path`.
    fn flip_last_bit(backend: &dyn StorageBackend, path: &Path) {
        let mut bytes = backend.read(path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x40;
        backend.write_file(path, &[&bytes]).unwrap();
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop `crc32` replaced, as its oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &b| {
            CRC_TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8)
        })
    }

    /// A seeded xorshift stream of `len` bytes: no byte pattern the
    /// tables could favour.
    fn xorshift_bytes(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect()
    }

    #[test]
    fn crc32_matches_the_bytewise_loop_at_every_length_and_alignment() {
        let buffer = xorshift_bytes((1usize << 20) + 40);
        for offset in 0..8 {
            for len in 0..=64 {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "offset {offset}, length {len}");
            }
        }
        let mib = &buffer[3..3 + (1 << 20)];
        assert_eq!(crc32(mib), crc32_bytewise(mib));
    }

    #[test]
    fn crc32_lanes_match_the_bytewise_loop_around_the_split() {
        let buffer = xorshift_bytes((1usize << 20) + 40);
        // Below four lanes, at the threshold and three lane widths past it,
        // where the last lane's tail runs from 0 to 31 bytes.
        for offset in 0..8 {
            for len in 0..=7 * MIN_LANE_BYTES {
                let bytes = &buffer[offset..offset + len];
                assert_eq!(crc32(bytes), crc32_bytewise(bytes), "offset {offset}, length {len}");
            }
        }
        // 1 MiB + 0..=31: the oracle's register is carried one byte on
        // rather than recomputed from the start.
        let mib = 1usize << 20;
        let mut register = !crc32_bytewise(&buffer[..mib]);
        for len in mib..=mib + 31 {
            assert_eq!(crc32(&buffer[..len]), !register, "length {len}");
            register = CRC_TABLES[0][((register ^ u32::from(buffer[len])) & 0xFF) as usize]
                ^ (register >> 8);
        }
    }

    #[test]
    fn crc32_combine_joins_the_crcs_of_every_split() {
        let buffer = xorshift_bytes(4096);
        let whole = crc32_bytewise(&buffer);
        for split in 0..=buffer.len() {
            let (a, b) = buffer.split_at(split);
            let joined = crc32_combine(crc32_bytewise(a), crc32_bytewise(b), b.len());
            assert_eq!(joined, whole, "split at {split}");
        }
    }

    #[test]
    fn roundtrip_preserves_everything() {
        on_each_backend("roundtrip", |backend, dir| {
            let mut store = DiskStore::open_with_backend(dir, 2, backend).unwrap();
            assert!(store.is_empty());
            assert_eq!(store.latest_valid().unwrap_err(), CkptError::NoCheckpoint);
            let meta = push_sample(&mut store, 7);
            assert_eq!(meta.iteration, 7);
            assert_eq!(meta.total_bytes, 45);
            assert_eq!(meta.original_bytes, 800);

            let ckpt = store.latest_valid().unwrap();
            assert_eq!(ckpt.metadata, meta);
            assert_eq!(ckpt.tag, "traditional");
            assert_eq!(
                ckpt.scalars,
                vec![("rho".to_string(), 0.25), ("beta".to_string(), -3.5)]
            );
            assert_eq!(
                ckpt.payloads,
                vec![
                    ("x".to_string(), vec![1u8, 2, 3, 4, 5]),
                    ("p".to_string(), vec![9u8; 40]),
                    ("empty".to_string(), vec![]),
                ]
            );
        });
    }

    #[test]
    fn discard_newest_removes_the_file_and_keeps_older_checkpoints_and_ids() {
        on_each_backend("discard", |backend, dir| {
            let mut store = DiskStore::open_with_backend(dir, 2, backend.clone()).unwrap();
            let kept = push_sample(&mut store, 1);
            let dropped = push_sample(&mut store, 2);
            let dropped_file = files_in(backend.as_ref(), dir).pop().unwrap();
            assert_eq!(store.latest_valid().unwrap().metadata.iteration, 2);

            store.discard_newest();
            assert!(backend.file_len(&dropped_file).is_err());
            assert_eq!(store.len(), 1);
            assert_eq!(store.latest_valid().unwrap().metadata, kept);
            // The discarded id is spent, and the slot it held is free again.
            assert_eq!(push_sample(&mut store, 3).id, dropped.id + 1);
            assert_eq!(store.len(), 2);

            store.discard_newest();
            store.discard_newest();
            store.discard_newest(); // empty store: nothing to do
            assert!(store.is_empty());
        });
    }

    #[test]
    fn invalidate_hides_a_checkpoint_and_every_delta_chained_on_it() {
        let dir = tempdir("invalidate");
        let mut store = DiskStore::open(&dir, 4).unwrap();
        let older = push_sample(&mut store, 1);
        let anchor = push_sample(&mut store, 2);
        push_sample_delta(&mut store, 3, Some(1));
        assert_eq!(store.latest_valid_chain().unwrap().len(), 2);

        store.invalidate(anchor.id);
        assert_eq!(store.latest_valid().unwrap().metadata, older);
        assert!(newest_file(&dir).exists(), "invalidated files stay on disk");
        store.invalidate(older.id);
        assert_eq!(store.latest_valid().unwrap_err(), CkptError::NoCheckpoint);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_evicts_stale_files() {
        let dir = tempdir("retention");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        for i in 0..5 {
            push_sample(&mut store, i);
        }
        assert_eq!(store.len(), 2);
        let ids: Vec<u64> = store.metadata().iter().map(|m| m.id).collect();
        assert_eq!(ids, vec![3, 4]);
        // Only two checkpoint files remain on disk, and one evicted file
        // kept as the next write's storage.
        assert_eq!(files_in(&OsBackend, &dir).len(), 2);
        let n_files = fs::read_dir(&dir).unwrap().count();
        assert_eq!(n_files, 3);
        assert!(dir.join("ckpt-0000000005.lcr.tmp").exists());
        assert_eq!(store.total_bytes_written, 5 * 45);
        assert_eq!(store.latest_valid().unwrap().metadata.iteration, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_resumes_ids_and_recovers() {
        let dir = tempdir("reopen");
        {
            let mut store = DiskStore::open(&dir, 2).unwrap();
            for i in 0..3 {
                push_sample(&mut store, 10 * (i + 1));
            }
        }
        let mut reopened = DiskStore::open(&dir, 2).unwrap();
        assert_eq!(reopened.len(), 2);
        let ckpt = reopened.latest_valid().unwrap();
        assert_eq!(ckpt.metadata.iteration, 30);
        assert_eq!(ckpt.scalars.len(), 2);
        // Ids continue after the highest existing one.
        let meta = push_sample(&mut reopened, 40);
        assert_eq!(meta.id, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn payload_bit_flip_falls_back_to_older_checkpoint() {
        let dir = tempdir("bitflip");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        push_sample(&mut store, 10);
        push_sample(&mut store, 20);
        // Flip one payload bit in the newest file (the last byte is payload
        // because `empty` contributes none and `p` ends the region).
        flip_last_bit(&OsBackend, &newest_file(&dir));

        let mut reopened = DiskStore::open(&dir, 2).unwrap();
        let ckpt = reopened.latest_valid().unwrap();
        assert_eq!(ckpt.metadata.iteration, 10, "must skip the corrupt newest");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_file_is_never_selected() {
        let dir = tempdir("truncate");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        push_sample(&mut store, 10);
        push_sample(&mut store, 20);
        let path = newest_file(&dir);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();

        let mut reopened = DiskStore::open(&dir, 2).unwrap();
        assert_eq!(reopened.len(), 1, "truncated file fails header validation");
        assert_eq!(reopened.latest_valid().unwrap().metadata.iteration, 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn header_corruption_is_rejected() {
        let dir = tempdir("header");
        let mut store = DiskStore::open(&dir, 1).unwrap();
        push_sample(&mut store, 10);
        let path = newest_file(&dir);
        let mut bytes = fs::read(&path).unwrap();
        bytes[20] ^= 0x01; // inside the metadata block
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_checkpoint_file(&path),
            Err(CkptError::Corrupt(_))
        ));
        let mut reopened = DiskStore::open(&dir, 1).unwrap();
        assert!(reopened.latest_valid().is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let dir = tempdir("trailing");
        let mut store = DiskStore::open(&dir, 1).unwrap();
        push_sample(&mut store, 10);
        let path = newest_file(&dir);
        let mut bytes = fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 16]);
        fs::write(&path, &bytes).unwrap();
        assert!(read_checkpoint_file(&path).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stray_tmp_files_are_cleaned_on_open() {
        let dir = tempdir("straytmp");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("ckpt-0000000009.lcr.tmp"), b"half a checkpoint").unwrap();
        fs::write(dir.join("unrelated.txt"), b"left alone").unwrap();
        let store = DiskStore::open(&dir, 1).unwrap();
        assert!(store.is_empty());
        assert!(!dir.join("ckpt-0000000009.lcr.tmp").exists());
        assert!(dir.join("unrelated.txt").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_behind_overlaps_and_flushes() {
        let dir = tempdir("writebehind");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        store.set_write_behind(true).unwrap();
        assert!(store.write_behind);

        let mut buffer = CheckpointBuffer::new();
        for i in 0..4usize {
            buffer.clear();
            buffer.push_with("x", |out| out.extend_from_slice(&[i as u8; 100]));
            store
                .push_from_buffer(i, i as f64, 100, None, "lossy", &[], &mut buffer)
                .unwrap();
            // The push kept this arena and handed back the previous one.
            let previous = i.checked_sub(1).map(|p| ("x".to_string(), vec![p as u8; 100]));
            assert_eq!(buffer.to_payloads(), Vec::from_iter(previous));
        }
        store.flush().unwrap();
        assert_eq!(store.len(), 2);
        let ckpt = store.latest_valid().unwrap();
        assert_eq!(ckpt.metadata.iteration, 3);
        assert_eq!(ckpt.payloads[0].1, vec![3u8; 100]);
        assert_eq!(ckpt.tag, "lossy");

        // Everything is also visible to a fresh store (i.e. on disk).
        store.set_write_behind(false).unwrap();
        let mut reopened = DiskStore::open(&dir, 2).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.latest_valid().unwrap().metadata.iteration, 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_joins_outstanding_writes() {
        let dir = tempdir("dropjoin");
        {
            let mut store = DiskStore::open(&dir, 1).unwrap();
            store.set_write_behind(true).unwrap();
            let mut buffer = CheckpointBuffer::new();
            buffer.push_with("x", |out| out.extend_from_slice(&[7u8; 64]));
            store
                .push_from_buffer(1, 1.0, 64, None, "lossy", &[], &mut buffer)
                .unwrap();
            // Dropped with the write possibly still in flight.
        }
        let mut reopened = DiskStore::open(&dir, 1).unwrap();
        assert_eq!(reopened.latest_valid().unwrap().payloads[0].1, vec![7u8; 64]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "retain at least one")]
    fn zero_retention_panics() {
        let _ = DiskStore::open(std::env::temp_dir().join("lcr-disk-zero"), 0);
    }

    #[test]
    fn delta_encoding_roundtrips_through_the_file_format() {
        let dir = tempdir("deltameta");
        let mut store = DiskStore::open(&dir, 4).unwrap();
        push_sample(&mut store, 10);
        push_sample_delta(&mut store, 20, Some(1));
        push_sample_delta(&mut store, 30, Some(2));

        // Both the live index and a fresh open agree on the chain links.
        for mut s in [store, DiskStore::open(&dir, 4).unwrap()] {
            let encodings: Vec<CheckpointEncoding> =
                s.metadata().iter().map(|m| m.encoding).collect();
            assert_eq!(
                encodings,
                vec![
                    CheckpointEncoding::Anchor,
                    CheckpointEncoding::Delta { base_id: 0, order: 1 },
                    CheckpointEncoding::Delta { base_id: 1, order: 2 },
                ]
            );
            let chain = s.latest_valid_chain().unwrap();
            let ids: Vec<u64> = chain.iter().map(|c| c.metadata.id).collect();
            assert_eq!(ids, vec![0, 1, 2], "anchor first, newest last");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_never_orphans_a_delta_whose_anchor_left_the_window() {
        on_each_backend("chainretention", |backend, dir| {
            let mut store = DiskStore::open_with_backend(dir, 2, backend.clone()).unwrap();
            push_sample(&mut store, 0);
            for i in 1..4 {
                push_sample_delta(&mut store, i, Some(1));
            }
            // The whole chain depends on the anchor, so nothing could be
            // evicted: the window stretched to hold all four files.
            assert_eq!(store.len(), 4, "anchor kept alive by its dependents");
            assert_eq!(files_in(backend.as_ref(), dir).len(), 4);
            let chain = store.latest_valid_chain().unwrap();
            assert_eq!(chain.len(), 4);

            // A new anchor releases the old chain wholesale.
            push_sample(&mut store, 4);
            let ids: Vec<u64> = store.metadata().iter().map(|m| m.id).collect();
            assert_eq!(ids, vec![4], "old chain evicted as one unit");
            assert_eq!(files_in(backend.as_ref(), dir).len(), 1);
            assert_eq!(store.latest_valid_chain().unwrap().len(), 1);
        });
    }

    #[test]
    fn retention_evicts_the_oldest_chain_wholesale_and_never_splits_one() {
        on_each_backend("twochains", |backend, dir| {
            // Anchors only: the classic window.
            let mut store = DiskStore::open_with_backend(dir, 3, backend).unwrap();
            for i in 0..5 {
                push_sample(&mut store, i);
            }
            let ids = |store: &DiskStore| store.metadata().iter().map(|m| m.id).collect::<Vec<_>>();
            assert_eq!(ids(&store), vec![2, 3, 4]);

            // Two chains [A5, d6] [A7, d8]: pushing d8 overflows the window
            // while [A5, d6] sits at the front, so both leave together.
            push_sample(&mut store, 5);
            push_sample_delta(&mut store, 6, Some(1));
            push_sample(&mut store, 7);
            push_sample_delta(&mut store, 8, Some(2));
            assert_eq!(ids(&store), vec![7, 8], "oldest chain evicted wholesale");
            let chain = store.latest_valid_chain().unwrap();
            assert_eq!(chain.iter().map(|c| c.metadata.id).collect::<Vec<_>>(), vec![7, 8]);
            assert_eq!(
                chain[1].metadata.encoding,
                CheckpointEncoding::Delta { base_id: 7, order: 2 }
            );
        });
    }

    #[test]
    fn retain_one_churn_keeps_only_newest_and_accounts_every_byte() {
        // The tightest retention setting under sustained churn: after every
        // push exactly one checkpoint survives, ids keep increasing, and
        // total_bytes_written reflects every byte ever pushed (eviction
        // must not rewind the I/O-volume counter).
        on_each_backend("churn", |backend, dir| {
            let mut store = DiskStore::open_with_backend(dir, 1, backend.clone()).unwrap();
            let mut expected_written = 0u64;
            for i in 0..100usize {
                let len = 1 + (i % 7);
                expected_written += len as u64;
                let mut buf = CheckpointBuffer::new();
                buf.push_with("x", |out| out.extend_from_slice(&vec![0xAB; len]));
                let meta = store
                    .push_from_buffer(i, i as f64, len * 10, None, "", &[], &mut buf)
                    .unwrap();
                assert_eq!(meta.id, i as u64);
                assert_eq!(store.len(), 1);
                assert_eq!(files_in(backend.as_ref(), dir).len(), 1);
                assert_eq!(store.latest_valid().unwrap().metadata.iteration, i);
                assert_eq!(store.total_bytes_written, expected_written);
            }
        });
    }

    #[test]
    fn a_checkpoint_of_no_variables_roundtrips_with_ratio_one() {
        on_each_backend("novars", |backend, dir| {
            let mut store = DiskStore::open_with_backend(dir, 1, backend).unwrap();
            let mut empty = CheckpointBuffer::new();
            let meta = store
                .push_from_buffer(0, 0.0, 0, None, "", &[], &mut empty)
                .unwrap();
            assert_eq!(meta.compression_ratio(), 1.0);
            assert_eq!(meta.total_bytes, 0);
            let ckpt = store.latest_valid().unwrap();
            assert_eq!(ckpt.metadata, meta);
            assert!(ckpt.payloads.is_empty());
        });
    }

    #[test]
    fn corrupt_anchor_invalidates_dependents_and_falls_back() {
        on_each_backend("chaincorrupt", |backend, dir| {
            let mut store = DiskStore::open_with_backend(dir, 4, backend.clone()).unwrap();
            push_sample(&mut store, 10); // id 0, anchor
            push_sample(&mut store, 20); // id 1, anchor
            push_sample_delta(&mut store, 30, Some(1)); // id 2, delta on 1

            // Flip a payload bit in the *anchor* of the newest chain (id 1).
            flip_last_bit(backend.as_ref(), &dir.join("ckpt-0000000001.lcr"));

            // The delta (id 2) is intact but undecodable without its base;
            // recovery must fall back to the older standalone anchor.
            let mut reopened = DiskStore::open_with_backend(dir, 4, backend).unwrap();
            let chain = reopened.latest_valid_chain().unwrap();
            assert_eq!(chain.len(), 1);
            assert_eq!(chain[0].metadata.iteration, 10, "fell back past the broken chain");
            assert_eq!(reopened.latest_valid().unwrap().metadata.iteration, 10);
        });
    }

    #[test]
    fn truncated_delta_falls_back_to_its_base_chain() {
        let dir = tempdir("chaintruncate");
        let mut store = DiskStore::open(&dir, 4).unwrap();
        push_sample(&mut store, 10); // id 0, anchor
        push_sample_delta(&mut store, 20, Some(1)); // id 1, delta on 0
        let path = dir.join("ckpt-0000000001.lcr");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();

        let mut reopened = DiskStore::open(&dir, 4).unwrap();
        let chain = reopened.latest_valid_chain().unwrap();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain[0].metadata.iteration, 10, "anchor alone still recovers");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "empty disk store")]
    fn delta_into_empty_disk_store_panics() {
        let dir = tempdir("deltaempty");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        let _ = push_sample_delta(&mut store, 0, Some(1));
    }

    #[test]
    fn every_recovery_validates_what_is_on_disk_now() {
        on_each_backend("rescan", |backend, dir| {
            let mut store = DiskStore::open_with_backend(dir, 4, backend.clone()).unwrap();
            push_sample(&mut store, 10); // id 0, anchor
            push_sample_delta(&mut store, 20, Some(1)); // id 1, delta on 0
            assert_eq!(store.latest_valid_chain().unwrap().len(), 2);

            // Corrupt the newest link behind the store's back; no push
            // follows, so only a fresh read can notice.
            flip_last_bit(backend.as_ref(), &dir.join("ckpt-0000000001.lcr"));
            let chain = store.latest_valid_chain().unwrap();
            assert_eq!(chain.len(), 1);
            assert_eq!(chain[0].metadata.iteration, 10, "fell back to the anchor");
        });
    }

    /// A backend over `inner` that fails on schedule: some whole-file
    /// reads, some renames of an evicted file to the next `.tmp`, or every
    /// operation from an index on (the device is gone, or the process died
    /// there), or every file write panics.  It notes every commit that
    /// completed — a rename to a checkpoint's name — and logs each
    /// completed write, sync, rename and removal by the file names it
    /// names.
    #[derive(Debug)]
    struct Failing {
        inner: Arc<dyn StorageBackend>,
        ops: AtomicU64,
        dead_from: u64,
        flaky_reads: AtomicU64,
        flaky_recycles: AtomicU64,
        exploding_writes: bool,
        renamed: Mutex<Vec<PathBuf>>,
        log: Mutex<Vec<String>>,
    }

    impl Failing {
        fn over(inner: Arc<dyn StorageBackend>, dead_from: u64) -> Self {
            Failing {
                inner,
                ops: AtomicU64::new(0),
                dead_from,
                flaky_reads: AtomicU64::new(0),
                flaky_recycles: AtomicU64::new(0),
                exploding_writes: false,
                renamed: Mutex::new(Vec::new()),
                log: Mutex::new(Vec::new()),
            }
        }

        /// A backend over memory whose every file write panics.
        fn exploding() -> Self {
            let backend = Failing::over(Arc::new(MemBackend::default()), u64::MAX);
            Failing { exploding_writes: true, ..backend }
        }

        fn op<T>(
            &self,
            run: impl FnOnce(&dyn StorageBackend) -> std::io::Result<T>,
        ) -> std::io::Result<T> {
            if self.ops.fetch_add(1, Ordering::SeqCst) >= self.dead_from {
                return Err(std::io::Error::other("injected: device gone"));
            }
            run(self.inner.as_ref())
        }

        /// [`Failing::op`], logged as `what` and the names of `paths` when
        /// it completes.
        fn logged(
            &self,
            what: &str,
            paths: &[&Path],
            run: impl FnOnce(&dyn StorageBackend) -> std::io::Result<()>,
        ) -> std::io::Result<()> {
            self.op(run)?;
            let mut line = what.to_string();
            for path in paths {
                line = format!("{line} {}", path.file_name().unwrap().to_str().unwrap());
            }
            self.log.lock().unwrap().push(line);
            Ok(())
        }

        /// Takes the log so far.
        fn take_log(&self) -> Vec<String> {
            std::mem::take(&mut *self.log.lock().unwrap())
        }
    }

    /// One countdown of injected failures: whether this call takes one.
    fn fails(countdown: &AtomicU64) -> bool {
        countdown
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    impl StorageBackend for Failing {
        fn create_dir_all(&self, d: &Path) -> std::io::Result<()> {
            self.op(|b| b.create_dir_all(d))
        }
        fn list_dir(&self, d: &Path) -> std::io::Result<Vec<PathBuf>> {
            self.op(|b| b.list_dir(d))
        }
        fn file_len(&self, p: &Path) -> std::io::Result<u64> {
            self.op(|b| b.file_len(p))
        }
        fn read_prefix(&self, p: &Path, n: usize) -> std::io::Result<Vec<u8>> {
            self.op(|b| b.read_prefix(p, n))
        }
        fn read(&self, p: &Path) -> std::io::Result<Vec<u8>> {
            if fails(&self.flaky_reads) {
                return Err(std::io::Error::other("injected transient EIO"));
            }
            self.op(|b| b.read(p))
        }
        fn write_file(&self, p: &Path, parts: &[&[u8]]) -> std::io::Result<()> {
            assert!(!self.exploding_writes, "backend exploded");
            self.logged("write_file", &[p], |b| b.write_file(p, parts))
        }
        fn fsync(&self, p: &Path) -> std::io::Result<()> {
            self.logged("fsync", &[p], |b| b.fsync(p))
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            let recycle = to.extension().is_some_and(|e| e == "tmp");
            if recycle && fails(&self.flaky_recycles) {
                return Err(std::io::Error::other("injected transient EIO"));
            }
            self.logged("rename", &[from, to], |b| b.rename(from, to))?;
            if to.extension().is_some_and(|e| e == "lcr") {
                self.renamed.lock().unwrap().push(to.to_path_buf());
            }
            Ok(())
        }
        fn fsync_dir(&self, d: &Path) -> std::io::Result<()> {
            self.logged("fsync_dir", &[d], |b| b.fsync_dir(d))
        }
        fn remove_file(&self, p: &Path) -> std::io::Result<()> {
            self.logged("remove_file", &[p], |b| b.remove_file(p))
        }
    }

    const NO_DELAY: RetryPolicy = RetryPolicy {
        max_retries: 3,
        base_delay_seconds: 0.0,
        multiplier: 2.0,
    };

    #[test]
    fn transient_read_errors_are_retried_and_counted() {
        let dir = tempdir("flakyread");
        let backend = Arc::new(Failing::over(Arc::new(OsBackend), u64::MAX));
        let mut store = DiskStore::open_with_backend(&dir, 2, backend.clone()).unwrap();
        store.set_retry_policy(NO_DELAY);
        push_sample(&mut store, 10);
        backend.flaky_reads.store(2, Ordering::SeqCst);
        let ckpt = store.latest_valid().unwrap();
        assert_eq!(ckpt.metadata.iteration, 10);
        assert_eq!(store.io_retries(), 2, "both transient read errors retried");
        assert_eq!(store.backoff_log().len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A write-behind store over a backend whose file writes panic, with
    /// one push in flight.
    fn exploding_write_in_flight() -> DiskStore {
        let mut store = DiskStore::open_with_backend("ckpts", 2, Arc::new(Failing::exploding())).unwrap();
        store.set_write_behind(true).unwrap();
        push_sample(&mut store, 1);
        store
    }

    #[test]
    #[should_panic(expected = "backend exploded")]
    fn a_panic_on_the_io_thread_re_raises_on_flush() {
        let _ = exploding_write_in_flight().flush();
    }

    #[test]
    fn a_write_that_panicked_on_the_io_thread_is_not_indexed_as_landed() {
        let mut store = exploding_write_in_flight();
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.flush()));
        assert!(joined.is_err(), "the panic reaches the caller");
        assert!(store.is_empty());
        assert_eq!(store.latest_valid().unwrap_err(), CkptError::NoCheckpoint);
        assert_eq!(store.flush(), Ok(()), "the panic is raised once");
    }

    /// Runs the script [anchor, delta, delta, anchor, delta] at `retain = 2`
    /// over `backend` until a push fails — a dead process pushes no more.
    fn run_crash_script(backend: Arc<dyn StorageBackend>) {
        let Ok(mut store) = DiskStore::open_with_backend("ckpts", 2, backend) else {
            return;
        };
        store.set_retry_policy(NO_DELAY);
        let mut buf = sample_buffer();
        for (iteration, delta) in [None, Some(1), Some(2), None, Some(1)].into_iter().enumerate() {
            let pushed = store.push_from_buffer(iteration, 0.0, 800, delta, "t", &[], &mut buf);
            if pushed.is_err() {
                return;
            }
        }
    }

    #[test]
    fn a_crash_at_every_operation_leaves_the_newest_renamed_checkpoint_recoverable() {
        let id_of = |path: &Path| -> u64 {
            let name = path.file_name().unwrap().to_str().unwrap();
            name["ckpt-".len()..name.len() - ".lcr".len()].parse().unwrap()
        };
        let quiet = Arc::new(Failing::over(Arc::new(MemBackend::default()), u64::MAX));
        run_crash_script(quiet.clone());
        let total_ops = quiet.ops.load(Ordering::SeqCst);
        assert_eq!(quiet.renamed.lock().unwrap().len(), 5, "fault-free, all five commit");

        for crash_at in 0..=total_ops {
            let files = Arc::new(MemBackend::default());
            let dying = Arc::new(Failing::over(files.clone(), crash_at));
            run_crash_script(dying.clone());
            let renamed = dying.renamed.lock().unwrap();
            let renamed: Vec<u64> = renamed.iter().map(|p| id_of(p)).collect();
            assert!(renamed.windows(2).all(|w| w[0] < w[1]), "crash at {crash_at}: {renamed:?}");

            // What a fresh process finds on the same file system.
            let mut reopened = DiskStore::open_with_backend("ckpts", 2, files.clone()).unwrap();
            let left = files.list_dir(Path::new("ckpts")).unwrap();
            assert!(
                left.iter().all(|p| p.extension().is_some_and(|e| e == "lcr")),
                "crash at {crash_at}: stray files {left:?}"
            );
            match renamed.last() {
                None => assert_eq!(
                    reopened.latest_valid_chain().unwrap_err(),
                    CkptError::NoCheckpoint,
                    "crash at {crash_at}"
                ),
                Some(&newest) => {
                    let chain = reopened.latest_valid_chain().unwrap();
                    assert_eq!(chain.last().unwrap().metadata.id, newest, "crash at {crash_at}");
                    assert_eq!(chain[0].metadata.encoding, CheckpointEncoding::Anchor);
                    for link in chain.windows(2) {
                        assert_eq!(link[1].metadata.encoding.base_id(), Some(link[0].metadata.id));
                    }
                    // Every link is a file that validates on its own.
                    for link in &chain {
                        let name = format!("ckpts/ckpt-{:010}.lcr", link.metadata.id);
                        let on_its_own = read_checkpoint_with(files.as_ref(), Path::new(&name));
                        assert_eq!(on_its_own.as_ref(), Ok(link));
                    }
                    // The next id is past every id a file was ever named by.
                    assert!(push_sample(&mut reopened, 9).id > newest, "crash at {crash_at}");
                }
            }
        }
    }

    /// The names of `dir`'s files, sorted.
    fn names_in(backend: &dyn StorageBackend, dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = backend
            .list_dir(dir)
            .unwrap()
            .iter()
            .map(|p| p.file_name().unwrap().to_str().unwrap().to_string())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn a_steady_state_commit_overwrites_the_evicted_file_and_removes_none() {
        let backend = Arc::new(Failing::over(Arc::new(MemBackend::default()), u64::MAX));
        let mut store = DiskStore::open_with_backend("ckpts", 2, backend.clone()).unwrap();
        for iteration in 0..3 {
            push_sample(&mut store, iteration);
        }
        backend.take_log();
        push_sample(&mut store, 3);
        assert_eq!(
            backend.take_log(),
            [
                "write_file ckpt-0000000003.lcr.tmp",
                "fsync ckpt-0000000003.lcr.tmp",
                "rename ckpt-0000000003.lcr.tmp ckpt-0000000003.lcr",
                "fsync_dir ckpts",
                "rename ckpt-0000000001.lcr ckpt-0000000004.lcr.tmp",
            ]
        );
        assert_eq!(
            names_in(backend.as_ref(), Path::new("ckpts")),
            ["ckpt-0000000002.lcr", "ckpt-0000000003.lcr", "ckpt-0000000004.lcr.tmp"]
        );
        assert_eq!(store.latest_valid().unwrap().metadata.iteration, 3);
    }

    #[test]
    fn a_recycled_file_holds_exactly_the_new_checkpoint_shorter_or_longer() {
        on_each_backend("recycle", |backend, dir| {
            // At `retain = 1` a push overwrites the file of the push two
            // before it: 3 and 4 write short over long, 5 long over short.
            let mut store = DiskStore::open_with_backend(dir, 1, backend.clone()).unwrap();
            let fresh_dir = dir.join("fresh");
            let mut fresh = DiskStore::open_with_backend(&fresh_dir, 9, backend.clone()).unwrap();
            for (i, len) in [900usize, 700, 900, 5, 9, 800].into_iter().enumerate() {
                let mut buf = CheckpointBuffer::new();
                buf.push_with("x", |out| out.extend((0..len).map(|k| (k * 7 + i) as u8)));
                for s in [&mut store, &mut fresh] {
                    s.push_from_buffer(i, i as f64, 8 * len, None, "t", &[], &mut buf).unwrap();
                }
                let name = format!("ckpt-{i:010}.lcr");
                let recycled = backend.read(&dir.join(&name)).unwrap();
                assert_eq!(recycled, backend.read(&fresh_dir.join(&name)).unwrap(), "push {i}");
                assert_eq!(store.latest_valid().unwrap().payloads[0].1.len(), len);
            }
        });
    }

    #[test]
    fn a_failed_recycle_rename_removes_the_evictee_and_still_lands_the_commit() {
        on_each_backend("recyclefail", |inner, dir| {
            let backend = Arc::new(Failing::over(inner, u64::MAX));
            let mut store = DiskStore::open_with_backend(dir, 2, backend.clone()).unwrap();
            push_sample(&mut store, 0);
            push_sample(&mut store, 1);
            // Evicting checkpoint 0 cannot rename it: it is removed
            // instead, and checkpoint 3 is written into a fresh file.
            backend.flaky_recycles.store(1, Ordering::SeqCst);
            push_sample(&mut store, 2);
            assert_eq!(
                names_in(backend.as_ref(), dir),
                ["ckpt-0000000001.lcr", "ckpt-0000000002.lcr"]
            );
            push_sample(&mut store, 3);
            assert_eq!(store.io_retries(), 0);
            assert_eq!(store.latest_valid().unwrap().metadata.iteration, 3);
            assert_eq!(
                names_in(backend.as_ref(), dir),
                ["ckpt-0000000002.lcr", "ckpt-0000000003.lcr", "ckpt-0000000004.lcr.tmp"]
            );
            // A reopened directory holds checkpoints only.
            drop(store);
            let mut reopened = DiskStore::open_with_backend(dir, 2, backend.clone()).unwrap();
            assert_eq!(
                names_in(backend.as_ref(), dir),
                ["ckpt-0000000002.lcr", "ckpt-0000000003.lcr"]
            );
            assert_eq!(reopened.latest_valid().unwrap().metadata.iteration, 3);
        });
    }

    #[test]
    fn a_checkpoint_under_another_ids_name_is_never_selected() {
        on_each_backend("lostrename", |backend, dir| {
            let mut store = DiskStore::open_with_backend(dir, 9, backend.clone()).unwrap();
            for iteration in 0..4 {
                push_sample(&mut store, iteration);
            }
            drop(store);
            // Checkpoint 3 was written into checkpoint 0's evicted file and
            // fsynced, but a crash lost that file's rename to checkpoint
            // 3's `.tmp`: complete, CRC-valid bytes under the old name.
            let name = |id: u64| dir.join(format!("ckpt-{id:010}.lcr"));
            let bytes = backend.read(&name(3)).unwrap();
            backend.remove_file(&name(3)).unwrap();
            backend.write_file(&name(0), &[&bytes]).unwrap();

            let mut reopened = DiskStore::open_with_backend(dir, 9, backend.clone()).unwrap();
            let ids: Vec<u64> = reopened.metadata().iter().map(|m| m.id).collect();
            assert_eq!(ids, [1, 2]);
            assert_eq!(reopened.latest_valid().unwrap().metadata.iteration, 2);
            assert!(backend.file_len(&name(0)).is_ok(), "kept on disk, like any corrupt file");
            assert_eq!(push_sample(&mut reopened, 9).id, 3);
        });
    }

    #[test]
    fn version_1_files_are_rejected_as_unsupported() {
        let dir = tempdir("v1retired");
        let mut store = DiskStore::open(&dir, 2).unwrap();
        push_sample(&mut store, 10);
        drop(store);

        // Rewrite the file as a well-formed, CRC-valid file of the retired
        // format version 1: drop the encoding tag byte
        // (offset 49 = 16-byte fixed header + id/iteration/completed-at
        // u64s + level u8 + original-bytes u64), patch the version and
        // metadata length, and recompute the metadata CRC.
        let path = dir.join("ckpt-0000000000.lcr");
        let mut bytes = fs::read(&path).unwrap();
        bytes.remove(49);
        bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
        let meta_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) - 1;
        bytes[12..16].copy_from_slice(&meta_len.to_le_bytes());
        let crc_at = 16 + meta_len as usize;
        let crc = crc32(&bytes[..crc_at]);
        bytes[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
        fs::write(&path, &bytes).unwrap();

        match read_checkpoint_file(&path) {
            Err(CkptError::Corrupt(msg)) => {
                assert!(msg.contains("unsupported format version 1"), "{msg}");
            }
            other => panic!("a version-1 file must be rejected, got {other:?}"),
        }
        let mut reopened = DiskStore::open(&dir, 2).unwrap();
        assert_eq!(reopened.latest_valid().unwrap_err(), CkptError::NoCheckpoint);
        let _ = fs::remove_dir_all(&dir);
    }
}
