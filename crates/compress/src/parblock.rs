//! Shared block-split container used by the parallel codecs.
//!
//! Both the SZ and ZFP streams cut their payload into independently coded
//! blocks so that encoding and decoding parallelise; the on-wire framing is
//! identical for both and lives here so it cannot diverge:
//!
//! ```text
//! [u64 nblocks][u64 len × nblocks][block bytes …]
//! ```
//!
//! Blocks are produced/consumed one pool task each (`rayon::run_ordered`,
//! `rayon::run_items`) and concatenated in block order, so the container
//! bytes (and the decoded values) are bit-identical at any thread count.

use crate::bitstream::bytes;
use crate::{CompressError, Result};

/// Appends the container's length table: `[u64 nblocks][u64 len × nblocks]`.
fn put_lengths(out: &mut Vec<u8>, lens: impl ExactSizeIterator<Item = usize>) {
    bytes::put_u64(out, lens.len() as u64);
    for len in lens {
        bytes::put_u64(out, len as u64);
    }
}

/// Appends the framed container (`[u64 nblocks][u64 len × nblocks]
/// [block bytes …]`) for pre-encoded blocks to `out`.
pub(crate) fn write_container(out: &mut Vec<u8>, blocks: &[Vec<u8>]) {
    put_lengths(out, blocks.iter().map(Vec::len));
    for block in blocks {
        out.extend_from_slice(block);
    }
}

/// Appends the framed container for blocks whose exact lengths are known
/// before they are encoded: `fill(block_index, slot)` writes each block in
/// place, in parallel, into its `lens[block_index]`-byte slot of `out`.
pub(crate) fn encode_blocks_in_place<F>(out: &mut Vec<u8>, lens: &[usize], fill: F)
where
    F: Fn(usize, &mut [u8]) + Sync,
{
    put_lengths(out, lens.iter().copied());
    let start = out.len();
    out.resize(start + lens.iter().sum::<usize>(), 0);
    let slots = rayon::split_mut(&mut out[start..], lens.iter().copied());
    rayon::run_items(slots, fill);
}

/// Encodes `nblocks` independent blocks with `encode(block_index)` in
/// parallel and appends the framed container to `out`.
pub(crate) fn encode_blocks<F>(out: &mut Vec<u8>, nblocks: usize, encode: F)
where
    F: Fn(usize) -> Vec<u8> + Sync,
{
    let encoded = rayon::run_ordered(nblocks, encode);
    write_container(out, &encoded);
}

/// Reads a framed container of exactly `expected_blocks` blocks from
/// `buf[*pos..]`, decodes the blocks in parallel with
/// `decode(block_index, block_bytes)`, and returns the results in block
/// order.
///
/// # Errors
/// Propagates truncation errors from the framing reads, reports a block
/// count mismatch (tagged with `label`), and forwards the first decode
/// error in block order.
pub(crate) fn decode_blocks<T, F>(
    buf: &[u8],
    pos: &mut usize,
    expected_blocks: usize,
    label: &str,
    decode: F,
) -> Result<Vec<T>>
where
    T: Send,
    F: Fn(usize, &[u8]) -> Result<T> + Sync,
{
    let blocks = read_container(buf, pos, expected_blocks, label)?;
    rayon::run_items(blocks, decode).into_iter().collect()
}

/// Reads the container framing and returns the per-block byte slices.
fn read_container<'a>(
    buf: &'a [u8],
    pos: &mut usize,
    expected_blocks: usize,
    label: &str,
) -> Result<Vec<&'a [u8]>> {
    let nblocks = bytes::get_u64(buf, pos)? as usize;
    if nblocks != expected_blocks {
        return Err(CompressError::Corrupt(format!(
            "expected {expected_blocks} {label} blocks, found {nblocks}"
        )));
    }
    // The length table alone takes 8 bytes a block: a count the remaining
    // bytes cannot hold is rejected before it sizes an allocation.
    let remaining = buf.len().saturating_sub(*pos);
    if nblocks > remaining / 8 {
        return Err(CompressError::Corrupt(format!(
            "{nblocks} {label} blocks cannot be framed in the {remaining} bytes that remain"
        )));
    }
    let mut lens = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        lens.push(bytes::get_u64(buf, pos)? as usize);
    }
    let mut blocks = Vec::with_capacity(nblocks);
    for &len in &lens {
        blocks.push(bytes::get_slice(buf, pos, len)?);
    }
    Ok(blocks)
}
