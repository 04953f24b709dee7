//! Preconditioners.
//!
//! The paper uses PETSc's default preconditioning set-up — block Jacobi with
//! ILU(0) inside the blocks — for the Poisson experiments, and a plain
//! Jacobi (diagonal) preconditioner for the KKT240/GMRES experiment of
//! Figure 3.  This module implements those behind the [`Preconditioner`]
//! trait (apply `z = M⁻¹ r`).

use lcr_sparse::kernels::run_len;
use lcr_sparse::{CsrMatrix, SparseError, Vector, PAR_THRESHOLD};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::ops::Range;

/// Applies the inverse of a preconditioning operator `M`.
pub trait Preconditioner: Send + Sync {
    /// Computes `z = M⁻¹ r` into a preallocated vector (every element is
    /// overwritten) — what the solver inner loops call, so no iteration
    /// allocates.
    ///
    /// # Panics
    /// Implementations panic on dimension mismatch (programming error).
    fn apply_into(&self, r: &Vector, out: &mut Vector);

    /// Computes `z = M⁻¹ r` into a fresh vector.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    fn apply(&self, r: &Vector) -> Vector {
        let mut z = Vector::zeros(r.len());
        self.apply_into(r, &mut z);
        z
    }

    /// Short name ("none", "jacobi", "bjacobi+ilu0", ...).
    fn name(&self) -> &'static str;

    /// Whether this preconditioner is exactly the identity (`M = I`).
    ///
    /// Solvers use this to skip the `z = M⁻¹ r` application and reuse
    /// ‖r‖² as `rᵀz` — numerically identical, two fewer sweeps per
    /// iteration.  Only [`IdentityPreconditioner`] returns `true`.
    fn is_identity(&self) -> bool {
        false
    }

    /// Approximate number of bytes needed to store the preconditioner's
    /// data; contributes to the static-variable recovery accounting.
    fn storage_bytes(&self) -> usize;
}

/// The identity preconditioner (`M = I`).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl IdentityPreconditioner {
    /// Creates the identity preconditioner.
    pub fn new() -> Self {
        IdentityPreconditioner
    }
}

impl Preconditioner for IdentityPreconditioner {
    fn apply_into(&self, r: &Vector, out: &mut Vector) {
        out.copy_from(r);
    }

    fn name(&self) -> &'static str {
        "none"
    }

    fn is_identity(&self) -> bool {
        true
    }

    fn storage_bytes(&self) -> usize {
        0
    }
}

/// Jacobi (diagonal) preconditioner: `M = diag(A)`.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vector,
}

impl JacobiPreconditioner {
    /// Builds the preconditioner from the matrix diagonal.
    ///
    /// # Errors
    /// Returns [`SparseError::ZeroDiagonal`] if any diagonal entry is zero.
    pub fn new(a: &CsrMatrix) -> Result<Self, SparseError> {
        a.require_nonzero_diagonal()?;
        let mut inv_diag = a.diagonal();
        for v in inv_diag.iter_mut() {
            *v = 1.0 / *v;
        }
        Ok(JacobiPreconditioner { inv_diag })
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply_into(&self, r: &Vector, out: &mut Vector) {
        assert_eq!(r.len(), self.inv_diag.len(), "dimension mismatch");
        assert_eq!(out.len(), r.len(), "dimension mismatch");
        let (r, inv_diag) = (r.as_slice(), self.inv_diag.as_slice());
        run_len(r.len(), [out.as_mut_slice()], |rows, [zs]| {
            let scaled = r[rows.clone()].iter().zip(&inv_diag[rows]);
            for (z, (ri, di)) in zs.iter_mut().zip(scaled) {
                *z = ri * di;
            }
        });
    }

    fn name(&self) -> &'static str {
        "jacobi"
    }

    fn storage_bytes(&self) -> usize {
        self.inv_diag.len() * std::mem::size_of::<f64>()
    }
}

/// Threads a kernel over `rows` rows called from this thread may use: one
/// below [`PAR_THRESHOLD`], else the pool's size or this thread's cap on it.
fn pool_width(rows: usize) -> usize {
    match rayon::max_active_threads() {
        _ if rows < PAR_THRESHOLD => 1,
        0 => rayon::pool_threads(),
        cap => cap.min(rayon::pool_threads()),
    }
}

/// Runs `work` on every item: on the pool, each task taking one, where a
/// kernel over `rows` rows may use it ([`pool_width`]); in line otherwise.
/// Results come back in item order either way.
fn on_pool<P: Send, R: Send>(
    rows: usize,
    items: impl IntoIterator<Item = P, IntoIter: ExactSizeIterator>,
    work: impl Fn(P) -> R + Sync,
) -> Vec<R> {
    if pool_width(rows) > 1 {
        rayon::run_items(items, |_, item| work(item))
    } else {
        items.into_iter().map(work).collect()
    }
}

/// Converts a size or offset to the `u32` the factor arrays index with.
fn idx32(v: usize) -> Result<u32, SparseError> {
    u32::try_from(v).map_err(|_| {
        SparseError::InvalidStructure(format!(
            "{v} exceeds the u32 index range of a triangular factor"
        ))
    })
}

/// One strict triangle of an incomplete factor of a block of `len` rows:
/// every row exactly `width` entries wide — the block's widest row — with
/// `u32` columns local to the block.  A shorter row is padded after its
/// entries with `(len, +0.0)`: column `len` is the +0.0 slot that ends
/// every sweep's scratch, so a padding term subtracts an exact zero and a
/// row's sum, taken in storage order, keeps its bits.  Rows need no
/// pointers and every row's loop runs the same length, a compile-time one
/// on the 7-point stencil; the price is that one wide row widens every row
/// of its block.
#[derive(Debug, Clone)]
struct Rows {
    width: usize,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl Rows {
    /// `len` rows of `width` padding entries.
    fn padded(len: usize, width: usize) -> Self {
        Rows {
            width,
            cols: vec![len as u32; len * width],
            vals: vec![0.0; len * width],
        }
    }

    /// Stores an entry at `at` and moves `at` past it.
    #[inline]
    fn put(&mut self, at: &mut usize, col: u32, val: f64) {
        (self.cols[*at], self.vals[*at]) = (col, val);
        *at += 1;
    }

    /// Storage range of row `i`.
    #[inline]
    fn span(&self, i: usize) -> Range<usize> {
        i * self.width..(i + 1) * self.width
    }

    /// `init − Σ v·z[col]` over row `i`'s entries in storage order, its
    /// padding last — the whole inner loop of every triangular sweep.
    #[inline(always)]
    fn sub_row<R: Width>(&self, i: usize, init: f64, z: &[f64]) -> f64 {
        let (cols, vals) = R::row(self, i);
        let mut sum = init;
        for (&c, &v) in cols.iter().zip(vals) {
            sum -= v * z[c as usize];
        }
        sum
    }

    fn bytes(&self) -> usize {
        self.cols.len() * std::mem::size_of::<u32>() + self.vals.len() * std::mem::size_of::<f64>()
    }
}

/// How a sweep finds a factor row: [`Fixed`] knows its width when
/// compiled, which makes the row a fixed sequence of loads, multiplies and
/// subtractions, and [`Any`] reads it from the block.
trait Width {
    fn row(t: &Rows, i: usize) -> (&[u32], &[f64]);
}

/// Rows `K` wide.
struct Fixed<const K: usize>;

impl<const K: usize> Width for Fixed<K> {
    #[inline(always)]
    fn row(t: &Rows, i: usize) -> (&[u32], &[f64]) {
        let cols: &[u32; K] = t.cols[i * K..][..K].try_into().expect("K wide");
        let vals: &[f64; K] = t.vals[i * K..][..K].try_into().expect("K wide");
        (cols, vals)
    }
}

/// Rows as wide as their block's.
struct Any;

impl Width for Any {
    #[inline(always)]
    fn row(t: &Rows, i: usize) -> (&[u32], &[f64]) {
        let row = t.span(i);
        (&t.cols[row.clone()], &t.vals[row])
    }
}

/// Moves `at` up the ascending `cols` to the first column not below `c`
/// and, where that column is `c`, takes `delta` off its value — one step of
/// a zero-fill-in merge whose other side the caller walks.
#[inline]
fn sub_at(cols: &[u32], vals: &mut [f64], at: &mut usize, c: u32, delta: f64) {
    while cols.get(*at).is_some_and(|&have| have < c) {
        *at += 1;
    }
    if cols.get(*at) == Some(&c) {
        vals[*at] -= delta;
    }
}

/// Incomplete LU factorisation with zero fill-in, ILU(0), of one diagonal
/// block: `M = L·U` where `L`/`U` keep exactly the block's sparsity
/// pattern.  The factors are computed in place in the block's split
/// fixed-width storage, every array allocated once, straight from the
/// parent matrix's rows.
#[derive(Debug, Clone)]
struct Ilu0Block {
    /// L without its unit diagonal.
    lower: Rows,
    /// The pivots of U.
    diag: Vec<f64>,
    /// U without its diagonal.
    upper: Rows,
}

impl Ilu0Block {
    /// Copies the block of `a` with rows and columns in
    /// `[start, start + len)`; entries outside the block are dropped.
    ///
    /// # Errors
    /// [`SparseError::InvalidStructure`] for a row whose columns are not
    /// strictly increasing (or a block too large for `u32` columns),
    /// [`SparseError::ZeroDiagonal`] naming the first row of `a` whose
    /// diagonal is missing or zero.
    fn split(a: &CsrMatrix, start: usize, len: usize) -> Result<Self, SparseError> {
        let end = start + len;
        let rows = &a.indptr()[start..=end];
        let (indices, values) = (a.indices(), a.values());
        // The width first, so that every array is allocated once: `x − lo <
        // hi − lo` in wrapping arithmetic is `lo ≤ x < hi` in one comparison.
        let mut width = 0usize;
        for (i, row) in (start..end).zip(rows.windows(2)) {
            let (mut l_row, mut u_row) = (0usize, 0usize);
            for &c in &indices[row[0]..row[1]] {
                let c = c as usize;
                l_row += usize::from(c.wrapping_sub(start) < i - start);
                u_row += usize::from(c.wrapping_sub(i + 1) < end - (i + 1));
            }
            width = width.max(l_row).max(u_row);
        }
        // The padding column `len` is stored as a `u32` too.
        idx32(len)?;
        let mut f = Ilu0Block {
            lower: Rows::padded(len, width),
            diag: vec![0.0; len],
            upper: Rows::padded(len, width),
        };
        // One pass over the block's rows fills them: the same two range
        // tests route every entry, each row's cursors starting at its span
        // and stopping at most at its end, before the padding.
        for ((i, row), pivot) in (start..end).zip(rows.windows(2)).zip(&mut f.diag) {
            let (mut l_at, mut u_at) = ((i - start) * width, (i - start) * width);
            let mut floor = 0;
            for (&c, &v) in indices[row[0]..row[1]].iter().zip(&values[row[0]..row[1]]) {
                let c = c as usize;
                if c < floor {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {i}: column indices are not strictly increasing"
                    )));
                }
                floor = c + 1;
                // An in-block offset `c − start` is at most the `u32`
                // column `c`; the others are not stored.
                let local = c.wrapping_sub(start) as u32;
                match c.cmp(&i) {
                    Ordering::Less if c >= start => f.lower.put(&mut l_at, local, v),
                    Ordering::Equal => *pivot = v,
                    Ordering::Greater if c < end => f.upper.put(&mut u_at, local, v),
                    _ => {}
                }
            }
            // A diagonal that is not stored reads as the zero it is.
            if *pivot == 0.0 {
                return Err(SparseError::ZeroDiagonal(i));
            }
        }
        Ok(f)
    }

    /// Every stored entry as `(row, column, value)`, shifted by `offset`:
    /// row by row, lower part, diagonal, upper part; padding is not an
    /// entry.
    fn entries(&self, offset: usize) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        fn part(t: &Rows, i: usize, len: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
            let row = t.span(i).map(|k| (t.cols[k] as usize, t.vals[k]));
            row.take_while(move |&(j, _)| j < len)
        }
        let len = self.dim();
        (0..len).flat_map(move |i| {
            part(&self.lower, i, len)
                .chain(std::iter::once((i, self.diag[i])))
                .chain(part(&self.upper, i, len))
                .map(move |(j, v)| (offset + i, offset + j, v))
        })
    }

    fn bytes(&self) -> usize {
        self.lower.bytes() + self.upper.bytes() + self.diag.len() * std::mem::size_of::<f64>()
    }

    /// ILU(0) of the diagonal block `[start, start + len)` of `a`, read
    /// straight from `a`'s rows.
    ///
    /// # Errors
    /// [`SparseError::ZeroDiagonal`] naming the row of `a` whose pivot is
    /// (or becomes) zero, [`SparseError::InvalidStructure`] for a row whose
    /// column indices are not strictly increasing.
    fn new(a: &CsrMatrix, start: usize, len: usize) -> Result<Self, SparseError> {
        let mut f = Self::split(a, start, len)?;
        let Ilu0Block { lower, diag, upper } = &mut f;
        // IKJ-variant ILU(0) restricted to the original pattern.
        let width = upper.width;
        for i in 0..len {
            let (l_row, u_row) = (lower.span(i), upper.span(i));
            // Rows `k < i` of U are final; row `i` is being eliminated.
            let (u_done, u_rest) = upper.vals.split_at_mut(u_row.start);
            let (u_cols, u_vals) = (&upper.cols[u_row.clone()], &mut u_rest[..u_row.len()]);
            let (l_cols, l_vals) = (&lower.cols[l_row.clone()], &mut lower.vals[l_row]);
            // Row i's L entries, up to its padding.
            for at in 0..l_cols.partition_point(|&k| (k as usize) < len) {
                let k = l_cols[at] as usize;
                let pivot = diag[k];
                if pivot == 0.0 {
                    return Err(SparseError::ZeroDiagonal(start + k));
                }
                let lik = l_vals[at] / pivot;
                l_vals[at] = lik;
                // Subtract `lik ·` row k of U from what is left of row i —
                // the rest of its L part, its pivot, its U part — only
                // where row i already has entries: one walk over row k,
                // both parts of row i followed alongside.  A stored zero in
                // row k is skipped, as an entry-wise lookup would skip it,
                // and so is row k's padding.
                let k_row = k * width..(k + 1) * width;
                let (mut l_at, mut u_at) = (at + 1, 0);
                for (&c, &ukj) in upper.cols[k_row.clone()].iter().zip(&u_done[k_row]) {
                    if ukj == 0.0 {
                        continue;
                    }
                    match (c as usize).cmp(&i) {
                        Ordering::Less => sub_at(l_cols, l_vals, &mut l_at, c, lik * ukj),
                        Ordering::Equal => diag[i] -= lik * ukj,
                        Ordering::Greater => sub_at(u_cols, u_vals, &mut u_at, c, lik * ukj),
                    }
                }
            }
        }
        // Final pivots must be non-zero for the triangular solves.
        if let Some(i) = diag.iter().position(|&d| d == 0.0) {
            return Err(SparseError::ZeroDiagonal(start + i));
        }
        Ok(f)
    }

    fn dim(&self) -> usize {
        self.diag.len()
    }

    /// The width of every factor row.
    fn width(&self) -> usize {
        self.lower.width
    }
}

/// Most blocks one sweep advances together.  A triangular sweep is one
/// serial recurrence (`mul → sub → … → div` per row, each row waiting for
/// the one before); a few of them interleaved fill the stalls, too many
/// run out of registers and load streams.  Measured at 2, 3, 4 and 8.
const LOCKSTEP_MAX: usize = 4;

thread_local! {
    /// Per-thread sweep workspace, reused across applications (the pool's
    /// worker threads persist, so each thread grows it once): `len + 1`
    /// slots per block swept, the last one the +0.0 that factor padding
    /// reads.
    static SWEEP_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Solves `L U z = r` in each of the `W` consecutive `blocks`, whose rows
/// `R` reads and whose slices
/// of `r` and `z` lie back to back, advancing all of them one row at a
/// time: the blocks share no data, so their recurrences overlap in the
/// core while each block's own arithmetic, and so its result, is what a
/// sweep of that block alone computes.  The forward result `y` lives in
/// the thread's scratch, the backward solve runs in place there and stores
/// each final value to `z` as it goes.  A shorter block sits out the rows
/// it does not have.
fn sweep<const W: usize, R: Width>(
    blocks: &[Ilu0Block],
    r: &[f64],
    z: &mut [f64],
    scratch: &mut [f64],
) {
    let f: [&Ilu0Block; W] = std::array::from_fn(|b| &blocks[b]);
    let (mut r_rest, mut z_rest, mut y_rest) = (r, z, scratch);
    let r: [&[f64]; W] = std::array::from_fn(|b| {
        let r_b = r_rest.split_off(..f[b].diag.len());
        r_b.expect("dimension mismatch")
    });
    let z: [&mut [f64]; W] = std::array::from_fn(|b| {
        let z_b = z_rest.split_off_mut(..f[b].diag.len());
        z_b.expect("dimension mismatch")
    });
    let y: [&mut [f64]; W] = std::array::from_fn(|b| {
        let y_b = y_rest.split_off_mut(..f[b].dim() + 1).expect("scratch sized to fit");
        y_b[f[b].dim()] = 0.0;
        y_b
    });
    assert!(r_rest.is_empty() && z_rest.is_empty(), "dimension mismatch");
    let longest = f.iter().map(|f| f.diag.len()).max().unwrap_or(0);
    // Forward solve L y = r (unit diagonal).
    for i in 0..longest {
        for b in 0..W {
            if i < f[b].diag.len() {
                y[b][i] = f[b].lower.sub_row::<R>(i, r[b][i], y[b]);
            }
        }
    }
    // Backward solve U z = y, in place in y (y[j] for j > i is final).
    for i in (0..longest).rev() {
        for b in 0..W {
            if i < f[b].diag.len() {
                let zi = f[b].upper.sub_row::<R>(i, y[b][i], y[b]) / f[b].diag[i];
                (y[b][i], z[b][i]) = (zi, zi);
            }
        }
    }
}

/// [`sweep`] over a group of at most [`LOCKSTEP_MAX`] blocks, in this
/// thread's scratch.
fn sweep_group(blocks: &[Ilu0Block], r: &[f64], z: &mut [f64]) {
    SWEEP_SCRATCH.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        let len = blocks.iter().map(|b| b.dim() + 1).sum();
        if scratch.len() < len {
            scratch.resize(len, 0.0);
        }
        let y = &mut scratch[..len];
        match blocks.len() {
            1 => sweep_rows::<1>(blocks, r, z, y),
            2 => sweep_rows::<2>(blocks, r, z, y),
            3 => sweep_rows::<3>(blocks, r, z, y),
            4 => sweep_rows::<4>(blocks, r, z, y),
            w => unreachable!("{w} blocks in a group of at most {LOCKSTEP_MAX}"),
        }
    });
}

/// [`sweep`] over `W` blocks, with rows of the compile-time width 3 the
/// 7-point stencil gives where all of them have it.
fn sweep_rows<const W: usize>(blocks: &[Ilu0Block], r: &[f64], z: &mut [f64], y: &mut [f64]) {
    if blocks.iter().all(|b| b.width() == 3) {
        sweep::<W, Fixed<3>>(blocks, r, z, y)
    } else {
        sweep::<W, Any>(blocks, r, z, y)
    }
}

/// Block Jacobi preconditioner with ILU(0) inside each diagonal block —
/// PETSc's default parallel preconditioner, where each MPI rank factorises
/// its local diagonal block (the paper's §5.1 set-up).
///
/// The blocks share no data, so both the factorisation and every
/// application hand them to the thread pool (above
/// [`lcr_sparse::PAR_THRESHOLD`] rows), and an application sweeps a few
/// consecutive blocks at a time, row by row in lockstep; each block's
/// arithmetic is the same on any thread and in any company, so results are
/// bit-identical at any thread count.
#[derive(Debug, Clone)]
pub struct BlockJacobiPreconditioner {
    /// Contiguous, non-empty blocks tiling `0..dim` in order.
    blocks: Vec<Ilu0Block>,
    dim: usize,
}

impl BlockJacobiPreconditioner {
    /// Builds a block-Jacobi preconditioner with `n_blocks` contiguous
    /// diagonal blocks, each factorised with ILU(0).  `n_blocks` mirrors the
    /// number of ranks in the simulated run.
    ///
    /// Each block stores both strict triangles of its factor as rows as
    /// wide as the block's widest: a block of `len` rows whose widest
    /// strict-triangle row has `K` entries holds `len × K` entries per
    /// triangle however few its other rows have, so one dense coupling row
    /// makes the block's storage grow as `len²`
    /// ([`Preconditioner::storage_bytes`] counts that padding).
    ///
    /// # Errors
    /// [`SparseError::ZeroDiagonal`] naming the row of `a` whose pivot is
    /// missing, zero or becomes zero (the first block's error wins), and
    /// [`SparseError::InvalidStructure`] if a row's column indices are not
    /// strictly increasing.
    ///
    /// # Panics
    /// Panics if `n_blocks` is zero.
    pub fn new(a: &CsrMatrix, n_blocks: usize) -> Result<Self, SparseError> {
        assert!(n_blocks > 0, "need at least one block");
        let n = a.nrows();
        let n_blocks = n_blocks.min(n.max(1));
        let base = n / n_blocks;
        let extra = n % n_blocks;
        let mut start = 0usize;
        let bounds: Vec<(usize, usize)> = (0..n_blocks)
            .map(|b| {
                let len = base + usize::from(b < extra);
                start += len;
                (start - len, len)
            })
            .filter(|&(_, len)| len > 0)
            .collect();
        let blocks = on_pool(n, bounds, |(start, len)| {
            Ilu0Block::new(a, start, len)
        });
        Ok(BlockJacobiPreconditioner {
            blocks: blocks.into_iter().collect::<Result<_, _>>()?,
            dim: n,
        })
    }

    /// Every stored factor entry as `(row, column, value)` in the
    /// coordinates of the factorised matrix: row by row, each row's L part,
    /// pivot and U part in column order.
    pub fn factor_entries(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        let mut start = 0;
        self.blocks.iter().flat_map(move |block| {
            let offset = start;
            start += block.dim();
            block.entries(offset)
        })
    }
}

impl Preconditioner for BlockJacobiPreconditioner {
    fn apply_into(&self, r: &Vector, out: &mut Vector) {
        assert_eq!(r.len(), self.dim, "dimension mismatch");
        assert_eq!(out.len(), self.dim, "dimension mismatch");
        let threads = pool_width(self.dim);
        // As wide as the core overlaps well, as narrow as it takes to leave
        // every thread a group.
        let width = (self.blocks.len() / threads).clamp(1, LOCKSTEP_MAX);
        // Each group solves straight between its own slices of `r` and
        // `out` — no copies.
        let (mut r_rest, mut z_rest) = (r.as_slice(), out.as_mut_slice());
        let groups = self.blocks.chunks(width).map(|group| {
            let rows = ..group.iter().map(Ilu0Block::dim).sum();
            let r_g = r_rest.split_off(rows).expect("blocks tile r");
            let z_g = z_rest.split_off_mut(rows).expect("blocks tile out");
            (group, r_g, z_g)
        });
        on_pool(self.dim, groups, |(group, r_g, z_g)| sweep_group(group, r_g, z_g));
    }

    fn name(&self) -> &'static str {
        "bjacobi+ilu0"
    }

    fn storage_bytes(&self) -> usize {
        self.blocks.iter().map(Ilu0Block::bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcr_sparse::poisson::{poisson1d, poisson2d, poisson3d};

    /// The factor storage before rows were fixed-width: each strict
    /// triangle as CSR with `u32` row pointers, factorised by the same
    /// IKJ merge and swept in place in the output — kept as the reference
    /// the fixed-width rows must reproduce bit for bit.
    mod csr_route {
        use super::super::{sub_at, Ordering, Range};
        use lcr_sparse::CsrMatrix;

        fn row_range(ptr: &[u32], i: usize) -> Range<usize> {
            ptr[i] as usize..ptr[i + 1] as usize
        }

        #[derive(Default)]
        pub struct Triangle {
            ptr: Vec<u32>,
            cols: Vec<u32>,
            vals: Vec<f64>,
        }

        impl Triangle {
            fn sub_row(&self, i: usize, init: f64, z: &[f64]) -> f64 {
                let row = row_range(&self.ptr, i);
                let mut sum = init;
                for (&c, &v) in self.cols[row.clone()].iter().zip(&self.vals[row]) {
                    sum -= v * z[c as usize];
                }
                sum
            }
        }

        pub struct Block {
            lower: Triangle,
            diag: Vec<f64>,
            upper: Triangle,
        }

        impl Block {
            /// ILU(0) of the diagonal block `[start, start + len)` of `a`.
            pub fn new(a: &CsrMatrix, start: usize, len: usize) -> Self {
                let end = start + len;
                let (mut lower, mut upper) = (Triangle::default(), Triangle::default());
                let mut diag = vec![0.0; len];
                lower.ptr.push(0);
                upper.ptr.push(0);
                for i in start..end {
                    for (&c, &v) in a.row_indices(i).iter().zip(a.row_values(i)) {
                        let (c, local) = (c as usize, c.wrapping_sub(start as u32));
                        match c.cmp(&i) {
                            Ordering::Less if c >= start => {
                                lower.cols.push(local);
                                lower.vals.push(v);
                            }
                            Ordering::Equal => diag[i - start] = v,
                            Ordering::Greater if c < end => {
                                upper.cols.push(local);
                                upper.vals.push(v);
                            }
                            _ => {}
                        }
                    }
                    lower.ptr.push(lower.cols.len() as u32);
                    upper.ptr.push(upper.cols.len() as u32);
                }
                for i in 0..len {
                    let (l_row, u_row) = (row_range(&lower.ptr, i), row_range(&upper.ptr, i));
                    let (u_done, u_rest) = upper.vals.split_at_mut(u_row.start);
                    let (u_cols, u_vals) = (&upper.cols[u_row.clone()], &mut u_rest[..u_row.len()]);
                    let (l_cols, l_vals) = (&lower.cols[l_row.clone()], &mut lower.vals[l_row]);
                    for at in 0..l_cols.len() {
                        let k = l_cols[at] as usize;
                        let lik = l_vals[at] / diag[k];
                        l_vals[at] = lik;
                        let k_row = row_range(&upper.ptr, k);
                        let (mut l_at, mut u_at) = (at + 1, 0);
                        for (&c, &ukj) in upper.cols[k_row.clone()].iter().zip(&u_done[k_row]) {
                            if ukj == 0.0 {
                                continue;
                            }
                            match (c as usize).cmp(&i) {
                                Ordering::Less => sub_at(l_cols, l_vals, &mut l_at, c, lik * ukj),
                                Ordering::Equal => diag[i] -= lik * ukj,
                                Ordering::Greater => {
                                    sub_at(u_cols, u_vals, &mut u_at, c, lik * ukj)
                                }
                            }
                        }
                    }
                }
                Block { lower, diag, upper }
            }

            /// Every entry as `(row, column, value bits)`, shifted by
            /// `offset`: row by row, lower part, pivot, upper part.
            pub fn entries(&self, offset: usize) -> Vec<(usize, usize, u64)> {
                let part = |t: &Triangle, i: usize| {
                    row_range(&t.ptr, i).map(|k| (t.cols[k] as usize, t.vals[k])).collect::<Vec<_>>()
                };
                let mut out = Vec::new();
                for i in 0..self.diag.len() {
                    let row = part(&self.lower, i)
                        .into_iter()
                        .chain([(i, self.diag[i])])
                        .chain(part(&self.upper, i));
                    out.extend(row.map(|(j, v)| (offset + i, offset + j, v.to_bits())));
                }
                out
            }

            /// `L U z = r`, forward into `z` and backward in place.
            pub fn solve(&self, r: &[f64], z: &mut [f64]) {
                for i in 0..self.diag.len() {
                    z[i] = self.lower.sub_row(i, r[i], z);
                }
                for i in (0..self.diag.len()).rev() {
                    z[i] = self.upper.sub_row(i, z[i], z) / self.diag[i];
                }
            }
        }
    }

    /// A tridiagonal matrix whose row 5 also couples to columns 0..=10,
    /// so the first block's rows are wider than any stencil's.
    fn wide_row_matrix(n: usize) -> CsrMatrix {
        let mut dense = vec![0.0; n * n];
        for i in 0..n {
            dense[i * n + i] = 4.0 + (i % 3) as f64;
            if i > 0 {
                dense[i * n + i - 1] = -1.0;
            }
            if i + 1 < n {
                dense[i * n + i + 1] = -1.5;
            }
        }
        for j in (0..=10).filter(|&j| j != 5) {
            dense[5 * n + j] = -0.25 - 0.01 * j as f64;
        }
        dense[5 * n + 5] = 9.0;
        CsrMatrix::from_dense(n, n, &dense)
    }

    #[test]
    fn fixed_width_rows_match_the_csr_triangle_route_bit_for_bit() {
        let cases = [
            ("1-D", poisson1d(50)),
            ("2-D", poisson2d(9)),
            ("3-D", poisson3d(6)),
            ("wide row", wide_row_matrix(40)),
        ];
        for (name, a) in cases {
            let n = a.nrows();
            let mut r = Vector::zeros(n);
            r.fill_random(7, -1.0, 1.0);
            for n_blocks in [1, 3, 16] {
                let pre = BlockJacobiPreconditioner::new(&a, n_blocks).unwrap();
                let (mut start, mut expected, mut z_ref) = (0, Vec::new(), Vector::zeros(n));
                for block in &pre.blocks {
                    let len = block.dim();
                    let reference = csr_route::Block::new(&a, start, len);
                    expected.extend(reference.entries(start));
                    reference.solve(&r.as_slice()[start..start + len], &mut z_ref.as_mut_slice()[start..start + len]);
                    start += len;
                }
                let got: Vec<_> =
                    pre.factor_entries().map(|(i, j, v)| (i, j, v.to_bits())).collect();
                assert_eq!(got, expected, "{name}, {n_blocks} blocks: factors");
                let z = pre.apply(&r);
                let bits = |v: &Vector| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&z), bits(&z_ref), "{name}, {n_blocks} blocks: apply_into");
            }
        }
        // The last block is the short one; the wide row is wider than a
        // stencil's, so K follows the matrix, block by block.
        let per_block = |a: &CsrMatrix, of: fn(&Ilu0Block) -> usize| -> Vec<usize> {
            let pre = BlockJacobiPreconditioner::new(a, 3).unwrap();
            pre.blocks.iter().map(of).collect()
        };
        assert_eq!(per_block(&poisson1d(50), Ilu0Block::dim), [17, 17, 16]);
        assert_eq!(per_block(&wide_row_matrix(40), Ilu0Block::width), [5, 1, 1]);
    }

    /// SPD version of the 2-D Poisson matrix (the generators use the paper's
    /// negative-definite sign convention).
    fn spd_poisson2d(n: usize) -> CsrMatrix {
        poisson2d(n).negated()
    }

    fn dense_solve(a: &CsrMatrix, b: &Vector) -> Vector {
        // Small dense Gaussian elimination for reference solutions.
        let n = a.nrows();
        let mut m = vec![0.0f64; n * (n + 1)];
        for i in 0..n {
            for j in 0..n {
                m[i * (n + 1) + j] = a.get(i, j);
            }
            m[i * (n + 1) + n] = b[i];
        }
        for col in 0..n {
            // Partial pivot.
            let mut piv = col;
            for r in col + 1..n {
                if m[r * (n + 1) + col].abs() > m[piv * (n + 1) + col].abs() {
                    piv = r;
                }
            }
            for k in 0..=n {
                m.swap(col * (n + 1) + k, piv * (n + 1) + k);
            }
            let d = m[col * (n + 1) + col];
            for r in 0..n {
                if r != col && m[r * (n + 1) + col] != 0.0 {
                    let f = m[r * (n + 1) + col] / d;
                    for k in col..=n {
                        m[r * (n + 1) + k] -= f * m[col * (n + 1) + k];
                    }
                }
            }
        }
        Vector::from_vec(
            (0..n)
                .map(|i| m[i * (n + 1) + n] / m[i * (n + 1) + i])
                .collect(),
        )
    }

    #[test]
    fn identity_preconditioner() {
        let p = IdentityPreconditioner::new();
        let r = Vector::from_vec(vec![1.0, -2.0, 3.0]);
        assert_eq!(p.apply(&r), r);
        assert_eq!(p.name(), "none");
        assert_eq!(p.storage_bytes(), 0);
    }

    #[test]
    fn jacobi_preconditioner_divides_by_diagonal() {
        let a = poisson1d(4); // diagonal -2
        let p = JacobiPreconditioner::new(&a).unwrap();
        let r = Vector::from_vec(vec![2.0, -4.0, 6.0, 8.0]);
        let z = p.apply(&r);
        assert_eq!(z.as_slice(), &[-1.0, 2.0, -3.0, -4.0]);
        assert_eq!(p.name(), "jacobi");
        assert!(p.storage_bytes() > 0);

        let singular = CsrMatrix::from_dense(2, 2, &[0.0, 1.0, 1.0, 1.0]);
        assert!(JacobiPreconditioner::new(&singular).is_err());
    }

    #[test]
    fn ilu0_is_exact_for_tridiagonal() {
        // For a tridiagonal matrix ILU(0) equals the full LU, so applying it
        // solves the system exactly.
        let a = poisson1d(10);
        let ilu = BlockJacobiPreconditioner::new(&a, 1).unwrap();
        let b = Vector::filled(10, 1.0);
        let z = ilu.apply(&b);
        let exact = dense_solve(&a, &b);
        assert!(z.max_abs_diff(&exact) < 1e-10);
    }

    #[test]
    fn ilu0_reduces_condition_for_poisson2d() {
        let a = spd_poisson2d(6);
        let ilu = BlockJacobiPreconditioner::new(&a, 1).unwrap();
        let r = Vector::filled(36, 1.0);
        let z = ilu.apply(&r);
        // M⁻¹ r should be much closer to A⁻¹ r than r itself.
        let exact = dense_solve(&a, &r);
        let err_prec = z.max_abs_diff(&exact);
        let err_raw = r.max_abs_diff(&exact);
        assert!(err_prec < err_raw);
    }

    #[test]
    fn unsorted_rows_are_rejected_not_misfactorised() {
        // Row 1 stores columns 2, 0, 1: `from_raw` refuses it, the
        // unchecked constructor does not, and the factorisation splits and
        // merges rows by column order.
        let a = CsrMatrix::from_raw_unchecked(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 2, 0, 1, 1, 2],
            vec![4.0, -1.0, -1.0, -1.0, 4.0, -1.0, 4.0],
        );
        for err in [
            BlockJacobiPreconditioner::new(&a, 1).err(),
            BlockJacobiPreconditioner::new(&a, 3).err(),
        ] {
            assert!(
                matches!(&err, Some(SparseError::InvalidStructure(msg)) if msg.contains("row 1")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn zero_pivot_errors_name_the_row_of_the_whole_matrix() {
        // Second 2×2 block [[1, 1], [1, 1]] eliminates to a zero pivot.
        let a = CsrMatrix::from_dense(
            4,
            4,
            &[
                2.0, 0.0, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0,
            ],
        );
        assert_eq!(
            BlockJacobiPreconditioner::new(&a, 2).err(),
            Some(SparseError::ZeroDiagonal(3))
        );
        let missing = CsrMatrix::from_dense(2, 2, &[1.0, 1.0, 1.0, 0.0]);
        assert_eq!(
            BlockJacobiPreconditioner::new(&missing, 2).err(),
            Some(SparseError::ZeroDiagonal(1))
        );
    }

    #[test]
    fn block_jacobi_multiple_blocks() {
        let a = spd_poisson2d(4);
        let bj = BlockJacobiPreconditioner::new(&a, 4).unwrap();
        let r = Vector::filled(16, 1.0);
        let z = bj.apply(&r);
        assert_eq!(z.len(), 16);
        assert!(z.iter().all(|v| v.is_finite()));
        assert_eq!(bj.name(), "bjacobi+ilu0");
        assert!(bj.storage_bytes() > 0);
        // More blocks than rows is clamped, not a panic.
        let bj_many = BlockJacobiPreconditioner::new(&a, 100).unwrap();
        assert_eq!(bj_many.apply(&r).len(), 16);
    }
}
