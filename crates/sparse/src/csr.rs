//! Compressed sparse row matrix and its parallel kernels.

use crate::kernels;
use crate::simd::LANES;
use crate::vector::{Vector, PAR_THRESHOLD};
use crate::{Result, SparseError};
use std::sync::OnceLock;

/// Minimum run of equal-width rows promoted to a SELL-style [`RowBlock::Slab`].
/// One slab group is [`LANES`] rows, so shorter runs could never fill a group.
const SELL_MIN_ROWS: usize = LANES;

/// One traversal segment of a plan chunk — the SELL-style cache blocking.
///
/// The plan splits each chunk's row range into maximal runs of rows that
/// all store the same number of entries ([`RowBlock::Slab`]) and the
/// irregular rows in between ([`RowBlock::Tail`]).  Slabs are traversed in
/// groups of [`LANES`] rows in lockstep — eight independent gather/FMA
/// chains with row extents computed by pure arithmetic (no `indptr` reads)
/// — while tails keep the seed's carried-start traversal.  Within each row
/// the entries are still visited in ascending storage order, so the per-row
/// sums are **bit-identical** to the scalar traversal's.
#[derive(Debug, Clone, PartialEq)]
pub enum RowBlock {
    /// Rows `rows.0..rows.1` all store exactly `width` entries; row `r`'s
    /// entries occupy `k + (r − rows.0)·width ..` in the value/index arrays.
    Slab {
        /// Half-open row range of the slab.
        rows: (usize, usize),
        /// Entries stored by every row of the slab.
        width: usize,
        /// Storage offset of the first row's first entry.
        k: usize,
    },
    /// Irregular rows `rows.0..rows.1`, traversed via `indptr` with each
    /// row's end carried forward as the next row's start.
    Tail {
        /// Half-open row range of the tail.
        rows: (usize, usize),
    },
}

impl RowBlock {
    /// The half-open row range the block covers.
    pub fn rows(&self) -> (usize, usize) {
        match *self {
            RowBlock::Slab { rows, .. } | RowBlock::Tail { rows } => rows,
        }
    }
}

/// Consumer of row sums produced by the blocked traversal.
///
/// The traversal hands each slab lockstep group's [`LANES`] sums to
/// [`RowSink::slab`] wholesale, letting fused reductions accumulate them
/// with lane-parallel arithmetic; irregular rows arrive one at a time via
/// [`RowSink::row`].  The default `slab` simply forwards to `row` in
/// ascending row order, so plain consumers only implement `row`.
pub(crate) trait RowSink {
    /// One row's sum.
    fn row(&mut self, i: usize, sum: f64);

    /// Sums for the [`LANES`] consecutive rows starting at `r`.
    #[inline]
    fn slab(&mut self, r: usize, sums: &[f64; LANES]) {
        for (l, &s) in sums.iter().enumerate() {
            self.row(r + l, s);
        }
    }
}

/// Adapts a plain `FnMut(row, sum)` closure to [`RowSink`].
pub(crate) struct FnSink<F: FnMut(usize, f64)>(pub F);

impl<F: FnMut(usize, f64)> RowSink for FnSink<F> {
    #[inline]
    fn row(&mut self, i: usize, sum: f64) {
        (self.0)(i, sum);
    }
}

/// Narrows a column index to the `u32` that [`CsrMatrix`] stores — the one
/// place an index builder narrows.
///
/// # Panics
/// Panics if `c` does not fit in `u32`.
#[inline]
pub(crate) fn col32(c: usize) -> u32 {
    u32::try_from(c).expect("column index exceeds the u32 index range")
}

/// Validates one chunk's block decomposition under the `racecheck`
/// feature: the blocks' row ranges must be disjoint, in bounds and tile
/// the chunk's row range exactly, and every slab's storage extent must
/// stay within the matrix's stored non-zeros.  Reuses the pool's
/// [`ClaimSet`](rayon::racecheck::ClaimSet), so violations panic with the
/// checker's standard "overlaps" / "out of bounds" reports.
#[cfg(feature = "racecheck")]
fn check_blocks((r0, r1): (usize, usize), blocks: &[RowBlock], nnz: usize) {
    let row_claims = rayon::racecheck::ClaimSet::new(r1);
    let extent_claims = rayon::racecheck::ClaimSet::new(nnz);
    let mut covered = 0usize;
    for b in blocks {
        let (s, e) = b.rows();
        assert!(
            s >= r0,
            "racecheck: block rows {s}..{e} start before chunk rows {r0}..{r1}"
        );
        row_claims.claim(s, e);
        covered += e - s;
        if let RowBlock::Slab { width, k, .. } = *b {
            extent_claims.claim(k, k + (e - s) * width);
        }
    }
    assert_eq!(
        covered,
        r1 - r0,
        "racecheck: blocks do not tile chunk rows {r0}..{r1}"
    );
}

/// Precomputed execution plan for SpMV-shaped traversals of one matrix.
///
/// Built once per matrix from the row-pointer structure only (lazily on
/// first use, eagerly at the [`CsrMatrix::from_raw`] / COO-conversion
/// finalize points) and reused by every [`CsrMatrix::spmv`] and fused
/// kernel call, replacing the per-call chunk-policy recomputation the seed
/// implementation performed.  The plan fixes three decisions:
///
/// * an **nnz-balanced row partition**: chunk boundaries are chosen so each
///   chunk carries roughly `nnz / n_chunks` non-zeros, keeping load
///   balanced even when row lengths vary;
/// * the **parallel gate**, decided once from `nnz` (work-proportional) and
///   shared by `spmv`, `residual_into` and every fused kernel — previously
///   `residual_into` gated its subtraction pass on `nrows` while `spmv`
///   gated on `nnz`;
/// * a **SELL-style block decomposition** of every chunk ([`RowBlock`]):
///   maximal runs of equal-width rows become lockstep-traversable slabs,
///   irregular rows keep the carried-start traversal.
///
/// Because the partition depends only on the matrix structure — never on
/// the thread count — fused reductions that combine per-chunk partials in
/// chunk order stay bit-identical at any `LCR_NUM_THREADS`.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvPlan {
    chunks: Vec<(usize, usize)>,
    parallel: bool,
    blocks: Vec<Vec<RowBlock>>,
}

impl SpmvPlan {
    /// Builds the plan from the CSR row pointers.
    fn build(indptr: &[usize]) -> SpmvPlan {
        let nrows = indptr.len() - 1;
        let nnz = *indptr.last().unwrap();
        let parallel = nnz >= PAR_THRESHOLD;
        // Work-proportional chunk count, additionally capped by the row
        // count: rows are the unit of distribution, so a short, dense
        // matrix must not dispatch (mostly empty) excess pool tasks.
        let n_chunks = if parallel {
            (nnz / rayon::DEFAULT_MIN_CHUNK)
                .clamp(1, rayon::MAX_CHUNKS)
                .min(nrows.max(1))
        } else {
            1
        };
        let mut chunks = Vec::with_capacity(n_chunks);
        let mut row = 0usize;
        for i in 1..=n_chunks {
            let end = if i == n_chunks {
                nrows
            } else {
                // First row boundary whose cumulative nnz reaches this
                // chunk's share of the work.
                let target = i * nnz / n_chunks;
                indptr.partition_point(|&p| p < target).clamp(row, nrows)
            };
            chunks.push((row, end));
            row = end;
        }
        let blocks = chunks
            .iter()
            .map(|&(r0, r1)| Self::build_blocks(indptr, r0, r1))
            .collect();
        SpmvPlan {
            chunks,
            parallel,
            blocks,
        }
    }

    /// Splits chunk rows `r0..r1` into maximal equal-width slabs (runs of at
    /// least [`SELL_MIN_ROWS`] rows) and the irregular tails between them.
    fn build_blocks(indptr: &[usize], r0: usize, r1: usize) -> Vec<RowBlock> {
        let mut blocks = Vec::new();
        let mut tail_start = r0;
        let mut i = r0;
        while i < r1 {
            let w = indptr[i + 1] - indptr[i];
            let mut j = i + 1;
            while j < r1 && indptr[j + 1] - indptr[j] == w {
                j += 1;
            }
            if j - i >= SELL_MIN_ROWS {
                if tail_start < i {
                    blocks.push(RowBlock::Tail {
                        rows: (tail_start, i),
                    });
                }
                blocks.push(RowBlock::Slab {
                    rows: (i, j),
                    width: w,
                    k: indptr[i],
                });
                tail_start = j;
            }
            i = j;
        }
        if tail_start < r1 {
            blocks.push(RowBlock::Tail {
                rows: (tail_start, r1),
            });
        }
        blocks
    }

    /// The nnz-balanced row ranges; fused reductions combine their partials
    /// in exactly this order.
    pub fn chunks(&self) -> &[(usize, usize)] {
        &self.chunks
    }

    /// Whether traversals of this matrix should recruit the thread pool
    /// (`nnz >= PAR_THRESHOLD`) — the single gating decision shared by
    /// `spmv`, `residual_into` and the fused kernels.
    pub fn is_parallel(&self) -> bool {
        self.parallel
    }

    /// The SELL-style block decomposition of chunk `ci`.
    pub fn blocks(&self, ci: usize) -> &[RowBlock] {
        &self.blocks[ci]
    }

    /// Builds a plan with explicit chunk ranges — racecheck-test support
    /// only, so deliberately broken partitions (overlapping or
    /// out-of-bounds chunks) can be driven through the real kernels to
    /// prove the checker catches them.  Each chunk becomes a single
    /// [`RowBlock::Tail`], so the traversal exercises the general path.
    #[cfg(feature = "racecheck")]
    pub fn for_racecheck(chunks: Vec<(usize, usize)>) -> SpmvPlan {
        let blocks = chunks
            .iter()
            .map(|&rows| vec![RowBlock::Tail { rows }])
            .collect();
        Self::for_racecheck_with_blocks(chunks, blocks)
    }

    /// Builds a plan with explicit chunk ranges **and** explicit per-chunk
    /// block decompositions — racecheck-test support only, so deliberately
    /// broken slab layouts (overlapping rows, mis-tiled chunks, slab
    /// extents running past the value array) can be driven through the
    /// real traversal to prove the block validator catches them.
    #[cfg(feature = "racecheck")]
    pub fn for_racecheck_with_blocks(
        chunks: Vec<(usize, usize)>,
        blocks: Vec<Vec<RowBlock>>,
    ) -> SpmvPlan {
        assert_eq!(chunks.len(), blocks.len(), "one block list per chunk");
        SpmvPlan {
            chunks,
            parallel: true,
            blocks,
        }
    }
}

/// Interior cell holding the lazily built [`SpmvPlan`].
///
/// The plan is derived state, rebuildable from `indptr` at any time, so
/// equality ignores it entirely.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanCell(OnceLock<SpmvPlan>);

impl PartialEq for PlanCell {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

/// A sparse matrix in compressed sparse row (CSR) format.
///
/// This is the computational format: all solver kernels (`SpMV`, triangular
/// sweeps, preconditioner applications) operate on it.  Row pointers,
/// column indices and values are stored in three flat arrays, matching the
/// layout PETSc's `MATAIJ` uses.  Column indices are `u32` — the one index
/// array every traversal gathers through, 12 bytes per non-zero with its
/// value — so a matrix has at most `u32::MAX` columns.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f64>,
    plan: PlanCell,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw arrays after validating the structure.
    ///
    /// # Errors
    /// Returns [`SparseError::InvalidStructure`] if `ncols` exceeds
    /// `u32::MAX`, if the row pointer array has the wrong length, is not
    /// monotone, or points past the data arrays, or if a row's column
    /// indices are not strictly increasing (the lookups binary-search
    /// rows), and [`SparseError::IndexOutOfBounds`] if any column index is
    /// out of range.
    // lcr-analyze: allow(dead-public-item): the checked constructor for caller-supplied arrays; `from_raw_unchecked` is its trusted twin
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if ncols > u32::MAX as usize {
            return Err(SparseError::InvalidStructure(format!(
                "ncols {ncols} exceeds the u32 column-index range"
            )));
        }
        if indptr.len() != nrows + 1 {
            return Err(SparseError::InvalidStructure(format!(
                "indptr length {} != nrows + 1 = {}",
                indptr.len(),
                nrows + 1
            )));
        }
        if indices.len() != values.len() {
            return Err(SparseError::InvalidStructure(format!(
                "indices length {} != values length {}",
                indices.len(),
                values.len()
            )));
        }
        if indptr[0] != 0 || *indptr.last().unwrap() != indices.len() {
            return Err(SparseError::InvalidStructure(
                "indptr must start at 0 and end at nnz".into(),
            ));
        }
        for w in indptr.windows(2) {
            if w[1] < w[0] {
                return Err(SparseError::InvalidStructure(
                    "indptr must be non-decreasing".into(),
                ));
            }
        }
        for (row, w) in indptr.windows(2).enumerate() {
            let mut floor = 0;
            for &c in &indices[w[0]..w[1]] {
                let c = c as usize;
                if c >= ncols {
                    return Err(SparseError::IndexOutOfBounds {
                        row,
                        col: c,
                        nrows,
                        ncols,
                    });
                }
                if c < floor {
                    return Err(SparseError::InvalidStructure(format!(
                        "row {row}: column indices are not strictly increasing"
                    )));
                }
                floor = c + 1;
            }
        }
        let m = CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
            plan: PlanCell::default(),
        };
        // `from_raw` is a finalize point: build the SpMV plan eagerly so
        // the first solver iteration never pays for it.
        m.plan();
        Ok(m)
    }

    /// Builds a CSR matrix from raw arrays without validation.
    ///
    /// Used by the trusted converters inside this crate (COO → CSR, the
    /// generators).  The arrays must satisfy the CSR invariants: `ncols`
    /// fits `u32` and every column index is below it.  Rows need not be
    /// column-sorted (the sharded local views are not), but [`Self::get`]
    /// and the lookups built on it read only sorted rows correctly.
    pub fn from_raw_unchecked(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        values: Vec<f64>,
    ) -> Self {
        debug_assert!(ncols <= u32::MAX as usize);
        debug_assert_eq!(indptr.len(), nrows + 1);
        debug_assert_eq!(indices.len(), values.len());
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
            plan: PlanCell::default(),
        }
    }

    /// Builds an `n x n` identity matrix.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX`.
    pub fn identity(n: usize) -> Self {
        Self::from_diagonal(&vec![1.0; n])
    }

    /// Builds a diagonal matrix from the given diagonal entries.
    ///
    /// # Panics
    /// Panics if `diag.len()` exceeds `u32::MAX`.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        CsrMatrix {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..col32(n)).collect(),
            values: diag.to_vec(),
            plan: PlanCell::default(),
        }
    }

    /// Builds a dense matrix given row-major data (test/helper utility;
    /// zero entries are dropped).
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols` or a stored column exceeds
    /// `u32::MAX`.
    pub fn from_dense(nrows: usize, ncols: usize, data: &[f64]) -> Self {
        assert_eq!(data.len(), nrows * ncols, "from_dense: bad data length");
        let mut indptr = Vec::with_capacity(nrows + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0);
        for i in 0..nrows {
            for j in 0..ncols {
                let v = data[i * ncols + j];
                if v != 0.0 {
                    indices.push(col32(j));
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix {
            nrows,
            ncols,
            indptr,
            indices,
            values,
            plan: PlanCell::default(),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored (structural) non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column index array.
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// Value array.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable value array (structure is immutable; values may be edited,
    /// which ILU-type factorisations rely on).
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// `−A`, built in one pass over the values: the structure arrays and
    /// the structure-only [`SpmvPlan`] are copied, not recomputed.
    pub fn negated(&self) -> CsrMatrix {
        CsrMatrix {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            values: self.values.iter().map(|v| -v).collect(),
            plan: self.plan.clone(),
        }
    }

    /// Column indices of row `i`.
    pub fn row_indices(&self, i: usize) -> &[u32] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i`.
    pub fn row_values(&self, i: usize) -> &[f64] {
        &self.values[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Returns entry `(i, j)`, or `0.0` if it is not stored.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (start, end) = (self.indptr[i], self.indptr[i + 1]);
        match self.indices[start..end].binary_search_by(|&c| (c as usize).cmp(&j)) {
            Ok(pos) => self.values[start + pos],
            Err(_) => 0.0,
        }
    }

    /// Extracts the diagonal as a vector (missing entries are 0).
    pub fn diagonal(&self) -> Vector {
        let n = self.nrows.min(self.ncols);
        let mut d = Vector::zeros(n);
        for i in 0..n {
            d[i] = self.get(i, i);
        }
        d
    }

    /// Checks that every diagonal entry exists and is non-zero.
    ///
    /// A single linear pass over `indptr`/`indices`/`values` — O(nnz) —
    /// replacing the per-row binary-search `get(i, i)` lookup
    /// (O(n · log row_nnz)) and working on unsorted rows too.
    ///
    /// # Errors
    /// Returns [`SparseError::ZeroDiagonal`] naming the first offending row.
    pub fn require_nonzero_diagonal(&self) -> Result<()> {
        let n = self.nrows.min(self.ncols);
        let mut start = self.indptr[0];
        for i in 0..n {
            let end = self.indptr[i + 1];
            let found = self.indices[start..end]
                .iter()
                .position(|&c| c as usize == i)
                .is_some_and(|p| self.values[start + p] != 0.0);
            if !found {
                return Err(SparseError::ZeroDiagonal(i));
            }
            start = end;
        }
        Ok(())
    }

    /// The matrix's precomputed [`SpmvPlan`], built on first use (and
    /// eagerly at the `from_raw` / COO-conversion finalize points).
    pub fn plan(&self) -> &SpmvPlan {
        self.plan.0.get_or_init(|| SpmvPlan::build(&self.indptr))
    }

    /// Replaces the precomputed plan — racecheck-test support only (see
    /// [`SpmvPlan::for_racecheck`]).  Never part of the production API:
    /// plans are always derived from `indptr`.
    #[cfg(feature = "racecheck")]
    pub fn override_plan_for_racecheck(&mut self, plan: SpmvPlan) {
        self.plan = PlanCell(std::sync::OnceLock::from(plan));
    }

    /// Computes the row sums `(A x)_i` for the rows of plan chunk `ci`,
    /// handing each to `emit(i, sum)` in row order — the traversal core
    /// shared by `spmv` and the fused kernels.
    ///
    /// The chunk is traversed block by block ([`RowBlock`]): slabs in
    /// lockstep groups of [`LANES`] rows with arithmetic row extents,
    /// tails with the carried-start `indptr` walk.
    ///
    /// Callers must have checked `x.len() == self.ncols()`: the gather
    /// through `x` relies on the CSR invariant `indices[k] < ncols` and
    /// skips per-element bounds checks.
    ///
    /// Under the `racecheck` feature, the chunk's block list is first
    /// validated against the plan's chunk range and the value array: the
    /// blocks must tile the chunk's rows exactly, and slab extents must
    /// stay within the stored non-zeros.
    #[inline]
    pub(crate) fn apply_chunk<F: FnMut(usize, f64)>(
        &self,
        plan: &SpmvPlan,
        ci: usize,
        x: &[f64],
        emit: F,
    ) {
        self.apply_chunk_sink(plan, ci, x, &mut FnSink(emit));
    }

    /// Sink-based variant of [`Self::apply_chunk`]: slab lockstep groups
    /// hand all [`LANES`] row sums to [`RowSink::slab`] in one call, so
    /// fused reductions (SpMV·dot, residual‖·‖²) can accumulate them with
    /// lane-parallel arithmetic instead of a serial per-row chain.
    pub(crate) fn apply_chunk_sink<S: RowSink>(
        &self,
        plan: &SpmvPlan,
        ci: usize,
        x: &[f64],
        sink: &mut S,
    ) {
        debug_assert_eq!(x.len(), self.ncols);
        let blocks = plan.blocks(ci);
        #[cfg(feature = "racecheck")]
        check_blocks(plan.chunks()[ci], blocks, self.values.len());
        self.apply_blocks(blocks, x, sink);
    }

    /// The block traversal itself — see [`Self::apply_chunk`].
    #[inline]
    fn apply_blocks<S: RowSink>(&self, blocks: &[RowBlock], x: &[f64], emit: &mut S) {
        let cols = &self.indices;
        let gather = |vals: &[f64], cs: &[u32]| -> f64 {
            let mut sum = 0.0;
            for (v, &c) in vals.iter().zip(cs) {
                let c = c as usize;
                debug_assert!(c < x.len(), "CSR column {c} out of bounds for x of len {}", x.len());
                // SAFETY: `c < ncols` (CSR invariant, validated by
                // `from_raw` and documented for `from_raw_unchecked`) and
                // `x.len() == ncols` (caller contract above).
                sum += v * unsafe { x.get_unchecked(c) };
            }
            sum
        };
        for b in blocks {
            match *b {
                RowBlock::Slab { rows: (s, e), width: w, k } => {
                    let mut r = s;
                    let mut base = k;
                    let span = LANES * w;
                    while r + LANES <= e {
                        // Checked subslices: a slab whose extent runs past
                        // the stored non-zeros panics here instead of
                        // reading out of bounds.
                        let vals = &self.values[base..base + span];
                        let cs = &cols[base..base + span];
                        let mut sums = [0.0f64; LANES];
                        // Lane-major inner loop: eight independent
                        // gather+multiply chains in flight per step.  Each
                        // row still accumulates its entries in ascending
                        // storage order, so per-row sums are bit-identical
                        // to the carried-start traversal's.
                        for j in 0..w {
                            for (l, acc) in sums.iter_mut().enumerate() {
                                // SAFETY: `l < LANES` and `j < w`, so
                                // `l·w + j < LANES·w = vals.len() = cs.len()`.
                                let (v, c) = unsafe {
                                    (
                                        *vals.get_unchecked(l * w + j),
                                        *cs.get_unchecked(l * w + j) as usize,
                                    )
                                };
                                debug_assert!(c < x.len(), "CSR column {c} out of bounds");
                                // SAFETY: CSR invariant `c < ncols` and the
                                // caller contract `x.len() == ncols`.
                                *acc += v * unsafe { x.get_unchecked(c) };
                            }
                        }
                        emit.slab(r, &sums);
                        r += LANES;
                        base += span;
                    }
                    for i in r..e {
                        emit.row(i, gather(&self.values[base..base + w], &cols[base..base + w]));
                        base += w;
                    }
                }
                RowBlock::Tail { rows: (s, e) } => {
                    let mut k = self.indptr[s];
                    for i in s..e {
                        let end = self.indptr[i + 1];
                        emit.row(i, gather(&self.values[k..end], &cols[k..end]));
                        k = end;
                    }
                }
            }
        }
    }

    /// Sparse matrix–vector product `y = A x`, parallelised over the
    /// precomputed [`SpmvPlan`] row chunks for matrices carrying at least
    /// [`PAR_THRESHOLD`] non-zeros.  Gating on `nnz` rather than `nrows`
    /// makes the switch work-proportional: a short, dense matrix
    /// parallelises, a tall, nearly-empty one does not.
    ///
    /// # Panics
    /// Panics if `x.len() != ncols` or `y.len() != nrows`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        kernels::spmv_into(self, x, y);
    }

    /// Convenience `A x` returning a fresh [`Vector`].
    pub fn mul_vec(&self, x: &Vector) -> Vector {
        let mut y = Vector::zeros(self.nrows);
        self.spmv(x.as_slice(), y.as_mut_slice());
        y
    }

    /// Computes the residual `r = b − A x`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn residual(&self, x: &Vector, b: &Vector) -> Vector {
        let mut r = Vector::zeros(self.nrows);
        self.residual_into(x.as_slice(), b.as_slice(), r.as_mut_slice());
        r
    }

    /// Computes the residual `r = b − A x` into a preallocated buffer —
    /// the allocation-free variant the solver inner loops and restart
    /// paths use.
    ///
    /// The subtraction is fused into the matrix traversal (one pass instead
    /// of an SpMV followed by a separate subtraction sweep), and the
    /// parallel gate is the [`SpmvPlan`]'s single nnz-based decision —
    /// previously this method gated its second pass on `nrows` while `spmv`
    /// gated on `nnz`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn residual_into(&self, x: &[f64], b: &[f64], r: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "residual: x length mismatch");
        assert_eq!(b.len(), self.nrows, "residual: b length mismatch");
        assert_eq!(r.len(), self.nrows, "residual: r length mismatch");
        kernels::residual_into(self, x, b, r);
    }

    /// Transposes the matrix.
    ///
    /// # Panics
    /// Panics if `nrows` (the transpose's column count) exceeds `u32::MAX`.
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut values = vec![0.0f64; self.nnz()];
        let mut next = counts.clone();
        for row in 0..self.nrows {
            for k in self.indptr[row]..self.indptr[row + 1] {
                let col = self.indices[k] as usize;
                let dst = next[col];
                indices[dst] = col32(row);
                values[dst] = self.values[k];
                next[col] += 1;
            }
        }
        CsrMatrix {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr: counts,
            indices,
            values,
            plan: PlanCell::default(),
        }
    }

    /// Whether the matrix is numerically symmetric to within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        if t.indptr != self.indptr {
            // Structures can differ while values still match; fall back to
            // an entry-wise comparison.
            for i in 0..self.nrows {
                for (pos, &j) in self.row_indices(i).iter().enumerate() {
                    let a_ij = self.row_values(i)[pos];
                    if (a_ij - self.get(j as usize, i)).abs() > tol {
                        return false;
                    }
                }
            }
            return true;
        }
        self.indices == t.indices
            && self
                .values
                .iter()
                .zip(t.values.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Infinity norm of the matrix (maximum absolute row sum), chunked over
    /// the precomputed [`SpmvPlan`] row partition.
    pub fn norm_inf(&self) -> f64 {
        let partials = kernels::run_plan(self.plan(), [], |_ci, rows, []| {
            let mut m = 0.0f64;
            let mut k = self.indptr[rows.start];
            for i in rows {
                let end = self.indptr[i + 1];
                let s: f64 = self.values[k..end].iter().map(|v| v.abs()).sum();
                m = m.max(s);
                k = end;
            }
            m
        });
        partials.into_iter().fold(0.0, f64::max)
    }

    /// Extracts the square sub-block with rows and columns in
    /// `[start, start+len)`.  Entries outside the block are dropped.  Used by
    /// the block-Jacobi preconditioner.
    ///
    /// # Panics
    /// Panics if a block column exceeds `u32::MAX` (it cannot: every
    /// column of `self` fits).
    pub fn diagonal_block(&self, start: usize, len: usize) -> CsrMatrix {
        let end = (start + len).min(self.nrows);
        let mut indptr = Vec::with_capacity(end - start + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0usize);
        for i in start..end {
            for k in self.indptr[i]..self.indptr[i + 1] {
                let j = self.indices[k] as usize;
                if j >= start && j < end {
                    indices.push(col32(j - start));
                    values.push(self.values[k]);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_raw_unchecked(end - start, end - start, indptr, indices, values)
    }

    /// Number of bytes needed to store the matrix values + structure
    /// (8 bytes per value, 4 per column index, 8 per row pointer) — also
    /// what one SpMV reads of the matrix.  Used by the checkpoint-size
    /// accounting of static variables.
    pub fn storage_bytes(&self) -> usize {
        self.values.len() * 8 + self.indices.len() * 4 + self.indptr.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CsrMatrix {
        // [ 4 -1  0 ]
        // [-1  4 -1 ]
        // [ 0 -1  4 ]
        CsrMatrix::from_dense(3, 3, &[4.0, -1.0, 0.0, -1.0, 4.0, -1.0, 0.0, -1.0, 4.0])
    }

    #[test]
    fn identity_and_diag() {
        let i3 = CsrMatrix::identity(3);
        assert_eq!(i3.nnz(), 3);
        let x = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        assert_eq!(i3.mul_vec(&x), x);

        let d = CsrMatrix::from_diagonal(&[2.0, 3.0]);
        assert_eq!(d.get(0, 0), 2.0);
        assert_eq!(d.get(0, 1), 0.0);
        assert_eq!(d.diagonal().as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = small();
        let x = Vector::from_vec(vec![1.0, 2.0, 3.0]);
        let y = a.mul_vec(&x);
        assert_eq!(y.as_slice(), &[2.0, 4.0, 10.0]);
    }

    #[test]
    fn residual_is_b_minus_ax() {
        let a = small();
        let x = Vector::from_vec(vec![1.0, 1.0, 1.0]);
        let b = Vector::from_vec(vec![3.0, 2.0, 3.0]);
        let r = a.residual(&x, &b);
        assert_eq!(r.as_slice(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = CsrMatrix::from_dense(2, 3, &[1.0, 0.0, 2.0, 0.0, 3.0, 0.0]);
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 2);
        assert_eq!(t.get(2, 0), 2.0);
        assert_eq!(t.get(1, 1), 3.0);
        let tt = t.transpose();
        assert_eq!(tt, a);
    }

    #[test]
    fn negated_flips_values_and_keeps_structure_and_plan() {
        let a = small();
        a.plan();
        let neg = a.negated();
        assert_eq!(neg.indptr(), a.indptr());
        assert_eq!(neg.indices(), a.indices());
        assert!(neg.values().iter().zip(a.values()).all(|(n, v)| *n == -*v));
        assert_eq!(neg.plan.0.get(), a.plan.0.get());
        assert!(neg.plan.0.get().is_some());
    }

    #[test]
    fn symmetry_check() {
        assert!(small().is_symmetric(1e-14));
        let ns = CsrMatrix::from_dense(2, 2, &[1.0, 2.0, 3.0, 4.0]);
        assert!(!ns.is_symmetric(1e-14));
        let rect = CsrMatrix::from_dense(1, 2, &[1.0, 2.0]);
        assert!(!rect.is_symmetric(1e-14));
    }

    #[test]
    fn norms() {
        let a = small();
        assert!((a.norm_inf() - 6.0).abs() < 1e-14);
    }

    #[test]
    fn diagonal_block_extraction() {
        let a = small();
        let b = a.diagonal_block(1, 2);
        assert_eq!(b.nrows(), 2);
        assert_eq!(b.get(0, 0), 4.0);
        assert_eq!(b.get(0, 1), -1.0);
        assert_eq!(b.get(1, 0), -1.0);
        // Block clipped at the matrix edge.
        let c = a.diagonal_block(2, 5);
        assert_eq!(c.nrows(), 1);
        assert_eq!(c.get(0, 0), 4.0);
    }

    #[test]
    fn from_raw_validation() {
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 1.0]).is_ok());
        // Wrong indptr length.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 1.0]).is_err());
        // Column out of bounds.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 5], vec![1.0, 1.0]).is_err());
        // Non-monotone indptr.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]).is_err());
        // indices/values length mismatch.
        assert!(CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0]).is_err());
    }

    #[test]
    fn from_raw_rejects_rows_whose_columns_do_not_increase() {
        // The symmetric tridiagonal [4 -1 0; -1 4 -1; 0 -1 4] with row 1
        // stored as columns 0, 2, 1: `get` binary-searches the row, so
        // accepting it would read a_11 as 0 and the diagonal as [4, 0, 4].
        let unsorted = CsrMatrix::from_raw(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 2, 1, 1, 2],
            vec![4.0, -1.0, -1.0, -1.0, 4.0, -1.0, 4.0],
        );
        assert!(
            matches!(&unsorted, Err(SparseError::InvalidStructure(msg)) if msg.contains("row 1")),
            "{unsorted:?}"
        );
        // A duplicate column is not strictly increasing either.
        let duplicate = CsrMatrix::from_raw(1, 2, vec![0, 2], vec![1, 1], vec![1.0, 1.0]);
        assert!(matches!(duplicate, Err(SparseError::InvalidStructure(_))));
        // The same matrix stored sorted reads back as written.
        let sorted = CsrMatrix::from_raw(
            3,
            3,
            vec![0, 2, 5, 7],
            vec![0, 1, 0, 1, 2, 1, 2],
            vec![4.0, -1.0, -1.0, 4.0, -1.0, -1.0, 4.0],
        )
        .unwrap();
        assert_eq!(sorted.diagonal().as_slice(), &[4.0, 4.0, 4.0]);
        assert!(sorted.is_symmetric(0.0));
    }

    #[test]
    fn from_raw_rejects_more_columns_than_u32_indexes() {
        let wide = CsrMatrix::from_raw(1, u32::MAX as usize + 1, vec![0, 0], vec![], vec![]);
        assert!(
            matches!(wide, Err(SparseError::InvalidStructure(_))),
            "{wide:?}"
        );
        assert!(CsrMatrix::from_raw(1, u32::MAX as usize, vec![0, 0], vec![], vec![]).is_ok());
    }

    #[test]
    #[should_panic(expected = "u32 index range")]
    fn col32_refuses_an_index_past_u32() {
        col32(u32::MAX as usize + 1);
    }

    #[test]
    fn nonzero_diagonal_requirement() {
        assert!(small().require_nonzero_diagonal().is_ok());
        let bad = CsrMatrix::from_dense(2, 2, &[1.0, 1.0, 1.0, 0.0]);
        assert_eq!(
            bad.require_nonzero_diagonal(),
            Err(SparseError::ZeroDiagonal(1))
        );
    }

    #[test]
    fn storage_bytes_accounting() {
        let a = small();
        assert_eq!(a.storage_bytes(), a.nnz() * 12 + (a.nrows() + 1) * 8);
    }

    #[test]
    fn short_dense_spmv_parallelises_and_matches() {
        // Few rows, many non-zeros: passes the nnz gate and must still
        // split into row chunks (work-aware min chunk length).
        let (rows, cols) = (96usize, 600usize);
        let data: Vec<f64> = (0..rows * cols)
            .map(|k| ((k % 13) as f64) - 5.5)
            .collect();
        assert!(data.iter().all(|&v| v != 0.0));
        let a = CsrMatrix::from_dense(rows, cols, &data);
        assert!(a.nnz() >= PAR_THRESHOLD);
        let mut x = Vector::zeros(cols);
        x.fill_random(11, -1.0, 1.0);
        let y = a.mul_vec(&x);
        for i in (0..rows).step_by(7) {
            let expect: f64 = (0..cols).map(|j| data[i * cols + j] * x[j]).sum();
            assert!((y[i] - expect).abs() < 1e-9 * expect.abs().max(1.0));
        }
    }

    #[test]
    fn plan_partition_covers_all_rows_in_order() {
        for a in [
            small(),
            CsrMatrix::identity(10),
            CsrMatrix::from_dense(96, 600, &vec![1.0; 96 * 600]),
        ] {
            let plan = a.plan();
            let chunks = plan.chunks();
            assert_eq!(chunks.first().unwrap().0, 0);
            assert_eq!(chunks.last().unwrap().1, a.nrows());
            for w in chunks.windows(2) {
                assert_eq!(w[0].1, w[1].0, "chunks must tile the row range");
            }
            assert_eq!(plan.chunks.len(), chunks.len());
            assert_eq!(plan.is_parallel(), a.nnz() >= PAR_THRESHOLD);
        }
    }

    #[test]
    fn plan_chunks_are_nnz_balanced() {
        // A short, dense matrix above the parallel threshold must split
        // into several chunks of roughly equal non-zero counts.
        let (rows, cols) = (96usize, 600usize);
        let a = CsrMatrix::from_dense(rows, cols, &vec![1.0; rows * cols]);
        assert!(a.nnz() >= PAR_THRESHOLD);
        let plan = a.plan();
        assert!(plan.chunks.len() > 1, "dense matrix must split");
        let per_chunk_target = a.nnz() / plan.chunks.len();
        for &(r0, r1) in plan.chunks() {
            let nnz = a.indptr()[r1] - a.indptr()[r0];
            // Balanced to within one row's worth of non-zeros.
            assert!(
                nnz <= per_chunk_target + cols,
                "chunk rows {r0}..{r1} carries {nnz} nnz vs target {per_chunk_target}"
            );
        }
    }

    #[test]
    fn plan_chunk_count_is_capped_by_rows() {
        // Fewer rows than the work-based chunk count would suggest: every
        // chunk must still carry at least one row (no empty pool tasks).
        let (rows, cols) = (4usize, 12_000usize);
        let a = CsrMatrix::from_dense(rows, cols, &vec![1.0; rows * cols]);
        assert!(a.nnz() >= PAR_THRESHOLD);
        let plan = a.plan();
        assert!(plan.chunks.len() <= rows);
        assert!(plan.chunks().iter().all(|&(r0, r1)| r1 > r0));
    }

    #[test]
    fn uniform_fast_path_spmv_matches_general() {
        // A diagonal matrix is one equal-width slab; its product must
        // match the entry-wise reference exactly.
        let n = 50;
        let d: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
        let a = CsrMatrix::from_diagonal(&d);
        let mut x = Vector::zeros(n);
        x.fill_random(5, -1.0, 1.0);
        let y = a.mul_vec(&x);
        for i in 0..n {
            assert_eq!(y[i], d[i] * x[i]);
        }
    }

    #[test]
    fn large_spmv_parallel_matches_serial() {
        // Build a banded matrix bigger than the parallel threshold.
        let n = PAR_THRESHOLD + 100;
        let mut indptr = Vec::with_capacity(n + 1);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        indptr.push(0usize);
        for i in 0..n {
            if i > 0 {
                indices.push((i - 1) as u32);
                values.push(1.0);
            }
            indices.push(i as u32);
            values.push(-2.0);
            if i + 1 < n {
                indices.push((i + 1) as u32);
                values.push(1.0);
            }
            indptr.push(indices.len());
        }
        let a = CsrMatrix::from_raw(n, n, indptr, indices, values).unwrap();
        let mut x = Vector::zeros(n);
        x.fill_random(7, -1.0, 1.0);
        let y = a.mul_vec(&x);
        // Serial reference.
        for i in (0..n).step_by(997) {
            let mut expect = -2.0 * x[i];
            if i > 0 {
                expect += x[i - 1];
            }
            if i + 1 < n {
                expect += x[i + 1];
            }
            assert!((y[i] - expect).abs() < 1e-12);
        }
    }
}
