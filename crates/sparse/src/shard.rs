//! Domain-decomposed (sharded) view of the global system: the distributed
//! CSR layout, the halo-exchange plan, and the shared board the sharded
//! solver loops communicate on.
//!
//! The paper's evaluation runs on 256–2,048 MPI ranks; this module makes
//! that decomposition *real* inside one process.  [`ShardLayout`] is
//! PETSc's balanced block-row layout made executable: the global rows
//! are grouped into fixed *reduction blocks* of [`REDUCE_BLOCK`] rows and
//! whole blocks are dealt to shards, so every shard boundary is a block
//! boundary.  [`partition_csr`] then carves the global matrix into one
//! [`ShardedCsr`] per shard — the locally owned rows with columns remapped
//! into `[owned | halo]` extended-vector coordinates — plus a [`HaloPlan`]
//! describing exactly which owned entries each peer needs.
//!
//! # Determinism contract
//!
//! Residual traces and converged solutions must be **bit-identical across
//! shard counts** (and trivially across `LCR_NUM_THREADS`, which the shard
//! loops never consult).  Two structural properties deliver that:
//!
//! 1. **Row-local products.**  The local CSR keeps the global entry
//!    storage order; only column *indices* are remapped.
//!    [`ShardedCsr::spmv`] runs the local matrix's own plan through the
//!    traversal [`CsrMatrix::spmv`] runs, in which every row, slab or
//!    tail, sums its entries from `0.0` in storage order.  So each row's
//!    sum traverses the same values in the same order at any shard count,
//!    and halo values are exact copies of their owners, so `y = A x` is
//!    reproduced bit-for-bit.
//! 2. **Blockwise two-phase reductions.**  A global dot product is never
//!    formed by pre-summing a shard's rows (shard-sized fold trees would
//!    differ across shard counts).  Instead every shard emits one partial
//!    *per reduction block* — a pure function of the block's contents —
//!    and every shard folds all shards' partials itself, concatenated in
//!    shard order (equal to ascending global block order, because shards
//!    own contiguous block ranges).  The fold sequence is identical for 1,
//!    2 or 4 shards, and identical on every shard.
//!
//! # The board
//!
//! Shards are threads of one process, so they meet the way MPI ranks meet
//! in an allreduce: no rank serves the others.  [`build_comms`] hands each
//! shard a [`ShardComm`] on one shared board.  Every operation — halo
//! exchange, reduction, all-ok vote — publishes into the shard's own post
//! (only it writes there), crosses one generation barrier and reads the
//! peers' posts directly; posts alternate by the generation's parity, so a
//! fast shard never overwrites what a slow one still reads.  Halo messages
//! are copied in ascending peer order, so their contents are deterministic
//! regardless of thread scheduling.  A withheld message, a barrier wait
//! past the heartbeat, a departed peer or mismatched operations end in a
//! typed [`CommError`].  A halo plan's receive ranges must tile the halo
//! buffer in peer order: [`HaloPlan::validate`] checks it when
//! [`partition_csr`] builds the plan, and every exchange checks it again
//! as it copies, in every build.

use crate::csr::col32;
use crate::{simd, CsrMatrix, Vector};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::Duration;

/// Rows per reduction block: the unit of the deterministic two-phase
/// global reduction, and the alignment of every shard boundary.
pub const REDUCE_BLOCK: usize = 1024;

// ---------------------------------------------------------------------------
// Layout
// ---------------------------------------------------------------------------

/// Block-aligned assignment of global rows to shards.
///
/// The `n` global rows form `ceil(n / block)` reduction blocks; whole
/// blocks are dealt out like PETSc's default row layout (each shard gets
/// `nblocks / shards`, the first `nblocks % shards` one more), so every
/// shard owns a contiguous, block-aligned row range.  Shards beyond the
/// block count own zero rows but still participate in every reduction and
/// barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    n: usize,
    block: usize,
    shards: usize,
}

impl ShardLayout {
    /// Creates a layout of `n` rows over `shards` shards with the default
    /// [`REDUCE_BLOCK`] reduction-block size.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    pub fn new(n: usize, shards: usize) -> Self {
        Self::with_block(n, shards, REDUCE_BLOCK)
    }

    /// Creates a layout with an explicit reduction-block size.  Traces are
    /// bit-identical across shard counts only for a *fixed* block size;
    /// tests use small blocks so that tiny systems still span shards.
    ///
    /// # Panics
    /// Panics if `shards == 0` or `block == 0`.
    pub fn with_block(n: usize, shards: usize, block: usize) -> Self {
        assert!(shards > 0, "layout requires at least one shard");
        assert!(block > 0, "reduction block must be non-empty");
        ShardLayout { n, block, shards }
    }

    /// Blocks every shard owns, and how many leading shards own one more.
    fn blocks_per_shard(&self) -> (usize, usize) {
        let nblocks = self.n.div_ceil(self.block);
        (nblocks / self.shards, nblocks % self.shards)
    }

    /// Total number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Reduction-block size in rows.
    pub fn block(&self) -> usize {
        self.block
    }

    /// The `[start, end)` global row range owned by `shard`.
    ///
    /// # Panics
    /// Panics if `shard >= shards`.
    pub fn range(&self, shard: usize) -> (usize, usize) {
        assert!(shard < self.shards, "shard out of range");
        let (base, extra) = self.blocks_per_shard();
        let start = shard * base + shard.min(extra);
        let end = start + base + usize::from(shard < extra);
        ((start * self.block).min(self.n), (end * self.block).min(self.n))
    }

    /// Number of rows owned by `shard`.
    pub fn rows(&self, shard: usize) -> usize {
        let (s, e) = self.range(shard);
        e - s
    }

    /// The shard owning global row `row`, in closed form: the first
    /// `extra` shards own `base + 1` blocks each, the rest `base`.
    ///
    /// # Panics
    /// Panics if `row >= n`.
    pub fn owner(&self, row: usize) -> usize {
        assert!(row < self.n, "row out of range");
        let (base, extra) = self.blocks_per_shard();
        let (block, boundary) = (row / self.block, extra * (base + 1));
        if block < boundary {
            block / (base + 1)
        } else {
            extra + (block - boundary) / base.max(1)
        }
    }

    /// Iterates the reduction-block sub-ranges of `shard`'s local rows, as
    /// `(start, end)` offsets *relative to the shard's first row*.  The
    /// shard start is block-aligned, so local blocks coincide with global
    /// blocks — the invariant the two-phase reduction rests on.
    pub fn local_block_ranges(&self, shard: usize) -> impl Iterator<Item = (usize, usize)> + '_ {
        let len = self.rows(shard);
        let block = self.block;
        (0..len.div_ceil(block)).map(move |k| (k * block, ((k + 1) * block).min(len)))
    }

    /// Per-reduction-block partials of `a · b` over one shard's local rows
    /// (phase one of the deterministic two-phase reduction).
    ///
    /// # Panics
    /// Panics if the slices are not exactly the shard's local length.
    pub fn block_dot(&self, shard: usize, a: &[f64], b: &[f64]) -> Vec<f64> {
        assert_eq!(a.len(), self.rows(shard), "block_dot: a length");
        assert_eq!(b.len(), self.rows(shard), "block_dot: b length");
        self.local_block_ranges(shard)
            .map(|(s, e)| simd::dot(&a[s..e], &b[s..e]))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Distributed CSR view
// ---------------------------------------------------------------------------

/// The halo-exchange plan of one shard: which off-shard columns its rows
/// read (receive side) and which of its owned entries every peer reads
/// (send side).
#[derive(Debug, Clone, PartialEq)]
pub struct HaloPlan {
    /// Global column indices this shard reads but does not own, sorted
    /// ascending.  Because owners hold contiguous ranges, the columns of
    /// one owner form one contiguous run of this list.
    pub halo_cols: Vec<usize>,
    /// Per peer shard: the `[start, end)` slice of the halo buffer filled
    /// by that peer's message (empty for peers contributing nothing, and
    /// always empty for the shard itself).
    pub recv_ranges: Vec<(usize, usize)>,
    /// Per peer shard: the local row offsets (relative to this shard's
    /// first row) whose values must be sent to that peer, in the peer's
    /// receive order (ascending global index).
    pub send_rows: Vec<Vec<usize>>,
}

impl HaloPlan {
    /// Number of halo (ghost) values this shard receives per exchange.
    fn halo_len(&self) -> usize {
        self.halo_cols.len()
    }

    /// Validates the receive side of the plan: every range is in bounds,
    /// and the non-empty ones, taken in peer order, tile the halo buffer —
    /// each starts where the one before it ended and the last ends at
    /// `halo_len` (peers own ascending column ranges, so this is the order
    /// [`partition_csr`] builds).  [`ShardComm::try_halo_exchange`] runs
    /// the same cursor as it copies.
    ///
    /// # Panics
    /// Panics if a range runs out of bounds, overlaps the one before it,
    /// leaves a gap, or the ranges stop short of the buffer.
    pub fn validate(&self) {
        let mut next = 0;
        for &(s, e) in &self.recv_ranges {
            assert!(s <= e && e <= self.halo_len(), "halo recv range bounds {s}..{e}");
            if s != e {
                next = recv_cursor(next, s, e);
            }
        }
        assert_eq!(next, self.halo_len(), "halo recv ranges must cover the buffer");
    }
}

/// Advances the receive cursor `next` over the non-empty range `s..e`.
///
/// # Panics
/// Names the range when it overlaps what was received before it or leaves
/// a gap after it.
fn recv_cursor(next: usize, s: usize, e: usize) -> usize {
    assert!(s >= next, "halo recv range {s}..{e} overlaps the ranges before it (up to {next})");
    assert!(s == next, "halo recv range {s}..{e} leaves a gap after {next}");
    e
}

/// One shard's view of the global matrix: the locally owned rows stored as
/// a CSR whose columns are remapped into extended-vector coordinates —
/// `0..rows` are the shard's own rows, `rows..rows + halo_len` are the
/// sorted halo columns.  Entry storage order is exactly the global
/// matrix's, which is what makes local products bit-identical at any
/// shard count.
#[derive(Debug, Clone)]
pub struct ShardedCsr {
    /// The layout this view was carved from.
    pub layout: ShardLayout,
    /// This shard's rank.
    pub shard: usize,
    /// First global row owned by this shard.
    pub row_start: usize,
    /// Local rows with columns remapped to `[owned | halo]` coordinates
    /// (`ncols == rows + halo_len`).  The remap puts every halo column
    /// after every owned one, so a row that reads a lower-numbered shard
    /// is not column-sorted: `get` and `diagonal` misread it, which is
    /// why [`ShardedCsr::diagonal_local`] scans each row instead.  Its
    /// own plan drives [`ShardedCsr::spmv`].
    pub local: CsrMatrix,
    /// The halo-exchange plan.
    pub halo: HaloPlan,
}

impl ShardedCsr {
    /// Number of locally owned rows.
    pub fn rows(&self) -> usize {
        self.local.nrows()
    }

    /// Length of the extended vector (`rows + halo_len`).
    pub fn ext_len(&self) -> usize {
        self.local.ncols()
    }

    /// The local product `y = A_local · x_ext`: the local matrix's own
    /// [`SpmvPlan`](crate::SpmvPlan), chunk by chunk on the calling thread.
    /// Every row sums its entries from `0.0` in global storage order, so
    /// the sums are identical at any shard count.  The shards are the
    /// parallelism here; no pool is consulted.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmv(&self, x_ext: &[f64], y: &mut [f64]) {
        assert_eq!(x_ext.len(), self.ext_len(), "spmv: x length");
        assert_eq!(y.len(), self.rows(), "spmv: y length");
        let plan = self.local.plan();
        for ci in 0..plan.chunks().len() {
            self.local.apply_chunk(plan, ci, x_ext, |i, sum| y[i] = sum);
        }
    }

    /// The local diagonal `a_ii` of the owned rows (extended column `i`
    /// *is* global column `row_start + i`).
    pub fn diagonal_local(&self) -> Vec<f64> {
        let indptr = self.local.indptr();
        let indices = self.local.indices();
        let values = self.local.values();
        (0..self.rows())
            .map(|i| {
                (indptr[i]..indptr[i + 1])
                    .find(|&k| indices[k] as usize == i)
                    .map_or(0.0, |k| values[k])
            })
            .collect()
    }
}

/// Carves the global square matrix into one [`ShardedCsr`] per shard of
/// `layout`, building the halo column maps and the matching send lists.
///
/// # Panics
/// Panics if `a` is not square or its dimension differs from `layout.n()`.
pub fn partition_csr(a: &CsrMatrix, layout: &ShardLayout) -> Vec<ShardedCsr> {
    assert_eq!(a.nrows(), a.ncols(), "sharding requires a square matrix");
    assert_eq!(a.nrows(), layout.n(), "layout dimension mismatch");
    let shards = layout.shards();
    let indptr = a.indptr();
    let indices = a.indices();
    let values = a.values();

    // Pass 1: local CSR + receive side of every halo plan.
    let mut parts: Vec<ShardedCsr> = (0..shards)
        .map(|s| {
            let (r0, r1) = layout.range(s);
            let rows = r1 - r0;
            // Sorted, deduplicated off-shard columns.
            let mut halo_cols: Vec<usize> = indices[indptr[r0]..indptr[r1]]
                .iter()
                .map(|&c| c as usize)
                .filter(|&c| c < r0 || c >= r1)
                .collect();
            halo_cols.sort_unstable();
            halo_cols.dedup();
            // Owners hold contiguous global ranges, so each owner's halo
            // columns form one contiguous run of the sorted list.
            let mut recv_ranges = vec![(0usize, 0usize); shards];
            let mut lo = 0;
            while lo < halo_cols.len() {
                let owner = layout.owner(halo_cols[lo]);
                let (_, owner_end) = layout.range(owner);
                let hi = halo_cols[lo..].partition_point(|&c| c < owner_end) + lo;
                recv_ranges[owner] = (lo, hi);
                lo = hi;
            }
            // Remap columns: owned -> c - r0, halo -> rows + slot.
            let mut l_indptr = Vec::with_capacity(rows + 1);
            l_indptr.push(0usize);
            let nnz = indptr[r1] - indptr[r0];
            let mut l_indices = Vec::with_capacity(nnz);
            let mut l_values = Vec::with_capacity(nnz);
            for row in r0..r1 {
                for k in indptr[row]..indptr[row + 1] {
                    let c = indices[k] as usize;
                    let lc = if c >= r0 && c < r1 {
                        c - r0
                    } else {
                        rows + halo_cols.binary_search(&c).expect("halo column indexed")
                    };
                    l_indices.push(col32(lc));
                    l_values.push(values[k]);
                }
                l_indptr.push(l_indices.len());
            }
            let ncols = rows + halo_cols.len();
            let local = CsrMatrix::from_raw_unchecked(rows, ncols, l_indptr, l_indices, l_values);
            ShardedCsr {
                layout: layout.clone(),
                shard: s,
                row_start: r0,
                local,
                halo: HaloPlan {
                    halo_cols,
                    recv_ranges,
                    send_rows: vec![Vec::new(); shards],
                },
            }
        })
        .collect();

    // Pass 2: derive each shard's send lists from its peers' halo columns.
    for receiver in 0..shards {
        let halo_cols = parts[receiver].halo.halo_cols.clone();
        for (owner, &(lo, hi)) in parts[receiver].halo.recv_ranges.clone().iter().enumerate() {
            if lo == hi {
                continue;
            }
            let (o0, _) = layout.range(owner);
            let rows: Vec<usize> = halo_cols[lo..hi].iter().map(|&c| c - o0).collect();
            parts[owner].halo.send_rows[receiver] = rows;
        }
    }
    for part in &parts {
        part.halo.validate();
    }
    parts
}

/// Gathers per-shard local solution slices back into one global vector,
/// in shard order.
pub fn gather_solution(layout: &ShardLayout, locals: &[Vec<f64>]) -> Vector {
    assert_eq!(locals.len(), layout.shards(), "one slice per shard");
    let mut out = Vec::with_capacity(layout.n());
    for (s, local) in locals.iter().enumerate() {
        assert_eq!(local.len(), layout.rows(s), "local slice length");
        out.extend_from_slice(local);
    }
    Vector::from_vec(out)
}

// ---------------------------------------------------------------------------
// Communication substrate: the shard board
// ---------------------------------------------------------------------------

/// A typed communication failure in the sharded protocol.
///
/// Every supervised failure mode — withheld message, stalled or departed
/// peer, broken lockstep — surfaces as one of these instead of a panic or
/// a hang, so a faulted run always ends in a *typed* error the caller can
/// classify (the safety invariant of the chaos soak).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// `peer` withheld the halo message `shard` reads this round.
    Withheld {
        /// The reading shard.
        shard: usize,
        /// The peer whose message was withheld.
        peer: usize,
    },
    /// The crossing can never complete (a peer stalled, failed or left)
    /// and this shard must unwind.
    Aborted {
        /// The aborted shard.
        shard: usize,
    },
    /// A crossing stayed incomplete for the heartbeat timeout while these
    /// shards had not reached it.
    Stalled {
        /// Shards that never arrived.
        waiting_on: Vec<usize>,
    },
    /// The lockstep protocol was violated (shards posted different
    /// operations at one crossing).
    Protocol(String),
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::Withheld { shard, peer } => {
                write!(f, "shard {shard}: peer {peer} withheld its halo message")
            }
            CommError::Aborted { shard } => {
                write!(f, "shard {shard}: aborted, a peer stalled or left")
            }
            CommError::Stalled { waiting_on } => {
                write!(f, "stall detected waiting on shards {waiting_on:?}")
            }
            CommError::Protocol(msg) => write!(f, "sharded protocol desync: {msg}"),
        }
    }
}

impl std::error::Error for CommError {}

/// What an interposer decides about one outbound halo message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommAction {
    /// Deliver the message normally.
    Deliver,
    /// Withhold it — the receiving peer turns the loss into a typed
    /// [`CommError::Withheld`] as soon as it has crossed.
    Drop,
}

/// Hook invoked before every outbound halo message is published — the
/// seam the chaos engine injects message delay, drop, and peer stall
/// through.  An implementation may sleep before returning (delay/stall)
/// and decides per message whether it is delivered.  The production path
/// has no interposer and pays nothing.
pub trait CommInterposer: Send {
    /// Called before halo message number `seq` (per sending endpoint,
    /// 0-based) from `from` to `to`.
    fn on_halo_send(&mut self, from: usize, to: usize, seq: u64) -> CommAction;
}

/// The operation a post was published for; every shard posts the same one
/// at each crossing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Op {
    #[default]
    Idle,
    Halo,
    Reduce,
    Vote,
}

/// One shard's contribution to one crossing.  Only its shard writes it.
#[derive(Default)]
struct Post {
    op: Op,
    /// Per peer: the halo values sent to it, in a buffer reused across
    /// rounds (`None`: withheld, or never sent).
    halo: Vec<Option<Vec<f64>>>,
    /// This shard's per-block partials of the reduced quantity, in a
    /// buffer reused across rounds.
    partials: Vec<f64>,
    vote: bool,
}

/// The generation barrier's state.
struct Gate {
    /// Crossings completed.
    generation: u64,
    /// Per shard: the crossings it has arrived at.
    arrived: Vec<u64>,
    /// A shard stalled or left, so no crossing completes any more.
    broken: bool,
}

/// What the shards share: two posts per shard, selected by the parity of
/// the generation, and one generation barrier.  A shard publishes into
/// post `g % 2`, crosses barrier `g`, then reads every post `g % 2`.  The
/// owner writes that post again only after crossing `g + 1`, which every
/// shard reaches only after its reads of generation `g`.
struct Board {
    posts: Vec<[RwLock<Post>; 2]>,
    gate: Mutex<Gate>,
    turned: Condvar,
    /// The heartbeat: the longest a shard waits at a crossing.
    timeout: Option<Duration>,
}

// A poisoned lock is recovered: every gate update is a single assignment,
// and a post whose writer panicked is never read, since its writer never
// arrives at that crossing.
impl Board {
    fn gate(&self) -> MutexGuard<'_, Gate> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `shard`'s post for crossing `g`, stamped with `op`.
    fn post(&self, shard: usize, g: u64, op: Op) -> RwLockWriteGuard<'_, Post> {
        let mut post = self.posts[shard][(g % 2) as usize]
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        post.op = op;
        post
    }

    /// Crosses barrier `g` and hands back every shard's post of it, in
    /// shard order.
    fn cross(
        &self,
        shard: usize,
        g: u64,
        op: Op,
    ) -> Result<Vec<RwLockReadGuard<'_, Post>>, CommError> {
        self.arrive(shard, g)?;
        let posts: Vec<_> = self
            .posts
            .iter()
            .map(|p| {
                p[(g % 2) as usize]
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
            })
            .collect();
        match posts.iter().position(|p| p.op != op) {
            Some(s) => Err(CommError::Protocol(format!(
                "shard {shard} posted {op:?}, shard {s} posted {:?}",
                posts[s].op
            ))),
            None => Ok(posts),
        }
    }

    /// Arrives at barrier `g` and waits until every shard has.  A released
    /// shard is never aborted: the generation is checked before the
    /// broken flag.
    fn arrive(&self, shard: usize, g: u64) -> Result<(), CommError> {
        let mut gate = self.gate();
        gate.arrived[shard] = g + 1;
        if !gate.broken && gate.arrived.iter().all(|&a| a > g) {
            gate.generation = g + 1;
            self.turned.notify_all();
            return Ok(());
        }
        // `Duration::MAX` outlasts any run: with no heartbeat the wait is
        // unbounded.
        let heartbeat = self.timeout.unwrap_or(Duration::MAX);
        let pending = |gate: &mut Gate| gate.generation == g && !gate.broken;
        let (mut gate, _) = self
            .turned
            .wait_timeout_while(gate, heartbeat, pending)
            .unwrap_or_else(PoisonError::into_inner);
        if gate.generation > g {
            Ok(())
        } else if gate.broken {
            Err(CommError::Aborted { shard })
        } else {
            gate.broken = true;
            self.turned.notify_all();
            let waiting_on = (0..gate.arrived.len())
                .filter(|&s| gate.arrived[s] <= g)
                .collect();
            Err(CommError::Stalled { waiting_on })
        }
    }
}

/// One shard's endpoint on the board shared with its peers.  Every
/// operation publishes into this shard's post, crosses the generation
/// barrier and reads the peers' posts, so no thread sits between shards:
/// each folds every reduction and vote itself.  Dropping the endpoint
/// (normal exit, error return or panic) breaks the board, so a crossing
/// still waiting for this shard aborts instead of hanging.
pub struct ShardComm {
    shard: usize,
    board: Arc<Board>,
    /// Crossings started.
    generation: u64,
    halo_doubles: u64,
    reduce_rounds: u64,
    halo_msgs: u64,
    interposer: Option<Box<dyn CommInterposer>>,
}

impl ShardComm {
    /// This endpoint's shard rank.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Number of shards in the run.
    pub fn shards(&self) -> usize {
        self.board.posts.len()
    }

    /// Total `f64` values this shard has sent in halo messages.
    pub fn halo_doubles_sent(&self) -> u64 {
        self.halo_doubles
    }

    /// Number of reduction rounds this shard has participated in.
    pub fn reduce_rounds(&self) -> u64 {
        self.reduce_rounds
    }

    /// Installs a [`CommInterposer`] on this endpoint's outbound halo
    /// messages (the chaos-injection seam).
    pub fn set_interposer(&mut self, interposer: Box<dyn CommInterposer>) {
        self.interposer = Some(interposer);
    }

    fn next_generation(&mut self) -> u64 {
        self.generation += 1;
        self.generation - 1
    }

    /// One deterministic halo exchange: publishes `owned` values for every
    /// peer per `plan.send_rows`, then copies the peers' messages into
    /// `halo` in ascending peer order.  The non-empty receive ranges must
    /// tile `halo` in that order (the cursor of [`HaloPlan::validate`],
    /// checked range by range as each is copied).
    ///
    /// # Errors
    /// [`CommError::Withheld`] if a peer withheld a message this shard
    /// reads, or any error of the crossing ([`CommError::Aborted`],
    /// [`CommError::Stalled`], [`CommError::Protocol`]).
    ///
    /// # Panics
    /// Panics on plan/buffer length mismatch, or if the receive ranges do
    /// not tile `halo`.
    pub fn try_halo_exchange(
        &mut self,
        plan: &HaloPlan,
        owned: &[f64],
        halo: &mut [f64],
    ) -> Result<(), CommError> {
        assert_eq!(halo.len(), plan.halo_len(), "halo buffer length");
        let g = self.next_generation();
        let mut post = self.board.post(self.shard, g, Op::Halo);
        for (peer, rows) in plan.send_rows.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let seq = self.halo_msgs;
            self.halo_msgs += 1;
            if let Some(interposer) = self.interposer.as_mut() {
                if interposer.on_halo_send(self.shard, peer, seq) == CommAction::Drop {
                    post.halo[peer] = None;
                    continue;
                }
            }
            let msg = post.halo[peer].get_or_insert_with(Vec::new);
            msg.clear();
            msg.extend(rows.iter().map(|&i| owned[i]));
            self.halo_doubles += rows.len() as u64;
        }
        drop(post);
        let posts = self.board.cross(self.shard, g, Op::Halo)?;
        let mut next = 0;
        for (peer, &(s, e)) in plan.recv_ranges.iter().enumerate() {
            if s == e {
                continue;
            }
            next = recv_cursor(next, s, e);
            let msg = posts[peer].halo[self.shard]
                .as_deref()
                .ok_or(CommError::Withheld {
                    shard: self.shard,
                    peer,
                })?;
            assert_eq!(msg.len(), e - s, "halo message length mismatch");
            halo[s..e].copy_from_slice(msg);
        }
        assert_eq!(next, halo.len(), "halo recv ranges must cover the buffer");
        Ok(())
    }

    /// The deterministic reduction: publishes this shard's per-block
    /// partials of one quantity and folds every shard's, in shard order and
    /// then block order from `0.0` — ascending global block order, so every
    /// shard computes the same bits at any shard count.
    ///
    /// # Errors
    /// Any error of the crossing ([`CommError::Aborted`],
    /// [`CommError::Stalled`], [`CommError::Protocol`]).
    pub fn try_reduce(&mut self, partials: &[f64]) -> Result<f64, CommError> {
        self.reduce_rounds += 1;
        let g = self.next_generation();
        let mut post = self.board.post(self.shard, g, Op::Reduce);
        post.partials.clear();
        post.partials.extend_from_slice(partials);
        drop(post);
        let posts = self.board.cross(self.shard, g, Op::Reduce)?;
        let mut sum = 0.0;
        for &p in posts.iter().flat_map(|post| &post.partials) {
            sum += p;
        }
        Ok(sum)
    }

    /// All-ok barrier: the conjunction of every shard's vote (the
    /// epoch-commit rule: an epoch is recoverable only when *all* shard
    /// segments landed).
    ///
    /// # Errors
    /// Same contract as [`ShardComm::try_reduce`].
    pub fn try_barrier_all_ok(&mut self, ok: bool) -> Result<bool, CommError> {
        let g = self.next_generation();
        self.board.post(self.shard, g, Op::Vote).vote = ok;
        let posts = self.board.cross(self.shard, g, Op::Vote)?;
        Ok(posts.iter().all(|p| p.vote))
    }
}

impl Drop for ShardComm {
    fn drop(&mut self) {
        self.board.gate().broken = true;
        self.board.turned.notify_all();
    }
}

/// Builds the board for `shards` shards and one [`ShardComm`] endpoint on
/// it per shard.  `timeout` is the heartbeat: the longest a shard waits at
/// a crossing before it declares the shards that have not arrived stalled
/// (`None` waits until they arrive or leave).
pub fn build_comms(shards: usize, timeout: Option<Duration>) -> Vec<ShardComm> {
    assert!(shards > 0, "at least one shard");
    let post = || {
        RwLock::new(Post {
            halo: vec![None; shards],
            ..Post::default()
        })
    };
    let board = Arc::new(Board {
        posts: (0..shards).map(|_| [post(), post()]).collect(),
        gate: Mutex::new(Gate {
            generation: 0,
            arrived: vec![0; shards],
            broken: false,
        }),
        turned: Condvar::new(),
        timeout,
    });
    (0..shards)
        .map(|shard| ShardComm {
            shard,
            board: Arc::clone(&board),
            generation: 0,
            halo_doubles: 0,
            reduce_rounds: 0,
            halo_msgs: 0,
            interposer: None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poisson::poisson3d;

    #[test]
    fn layout_is_block_aligned_and_covers_all_rows() {
        let l = ShardLayout::with_block(1000, 3, 64);
        let mut end = 0;
        for s in 0..3 {
            let (a, b) = l.range(s);
            assert_eq!(a, end, "contiguous coverage");
            assert!(a.is_multiple_of(64), "block-aligned start");
            end = b;
        }
        assert_eq!(end, 1000);
        for row in [0, 63, 64, 500, 999] {
            let o = l.owner(row);
            let (a, b) = l.range(o);
            assert!(row >= a && row < b, "owner({row}) = {o}");
        }
    }

    #[test]
    fn layout_tolerates_more_shards_than_blocks() {
        let l = ShardLayout::with_block(100, 4, 64);
        // Two blocks over four shards: the last two shards are empty.
        assert_eq!(l.rows(0) + l.rows(1) + l.rows(2) + l.rows(3), 100);
        assert_eq!(l.rows(3), 0);
        assert_eq!(l.block_dot(3, &[], &[]), Vec::<f64>::new());
    }

    #[test]
    fn block_dot_is_shard_count_invariant() {
        let n = 1000;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let fold = |shards: usize| -> f64 {
            let l = ShardLayout::with_block(n, shards, 64);
            let mut acc = 0.0;
            for s in 0..shards {
                let (a, b) = l.range(s);
                for p in l.block_dot(s, &x[a..b], &y[a..b]) {
                    acc += p;
                }
            }
            acc
        };
        let one = fold(1);
        for shards in [2, 3, 4, 7] {
            assert_eq!(one.to_bits(), fold(shards).to_bits(), "shards = {shards}");
        }
    }

    #[test]
    fn partitioned_spmv_matches_global_bitwise() {
        use crate::csr::RowBlock::Slab;
        // 8³ has one plan chunk per shard; 24³ (~93k non-zeros) has many
        // chunks and SELL slabs at 1 and 2 shards.
        for (edge, shard_counts) in [(8, &[1, 2, 3, 4][..]), (24, &[1, 2, 3, 4, 7][..])] {
            let a = poisson3d(edge);
            let n = a.nrows();
            let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
            let mut y_global = vec![0.0; n];
            a.spmv(&x, &mut y_global);
            for &shards in shard_counts {
                let layout = ShardLayout::with_block(n, shards, 64);
                for part in partition_csr(&a, &layout) {
                    if edge == 24 {
                        let plan = part.local.plan();
                        let slab = |ci| plan.blocks(ci).iter().any(|b| matches!(b, Slab { .. }));
                        assert!((0..plan.chunks().len()).any(slab), "{shards} shards: no slab");
                        assert!(shards > 2 || plan.chunks().len() > 1, "{shards} shards: 1 chunk");
                    }
                    let (r0, r1) = layout.range(part.shard);
                    // Assemble the extended vector by hand (exact halo copies).
                    let mut x_ext = x[r0..r1].to_vec();
                    x_ext.extend(part.halo.halo_cols.iter().map(|&c| x[c]));
                    let mut y = vec![0.0; part.rows()];
                    part.spmv(&x_ext, &mut y);
                    for (i, &v) in y.iter().enumerate() {
                        assert_eq!(
                            v.to_bits(),
                            y_global[r0 + i].to_bits(),
                            "{edge}³, row {} at {shards} shards",
                            r0 + i
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn halo_plans_are_mutually_consistent() {
        let a = poisson3d(6);
        let layout = ShardLayout::with_block(a.nrows(), 3, 32);
        let parts = partition_csr(&a, &layout);
        for part in &parts {
            part.halo.validate();
            for (peer, rows) in part.halo.send_rows.iter().enumerate() {
                let (lo, hi) = parts[peer].halo.recv_ranges[part.shard];
                assert_eq!(rows.len(), hi - lo, "send/recv symmetry");
                // The values sent are exactly the peer's halo columns.
                let (r0, _) = layout.range(part.shard);
                for (k, &local) in rows.iter().enumerate() {
                    assert_eq!(local + r0, parts[peer].halo.halo_cols[lo + k]);
                }
            }
        }
    }

    #[test]
    fn diagonal_local_matches_global() {
        let a = poisson3d(5);
        let diag = a.diagonal();
        let layout = ShardLayout::with_block(a.nrows(), 2, 32);
        for part in partition_csr(&a, &layout) {
            for (i, &d) in part.diagonal_local().iter().enumerate() {
                assert_eq!(d, diag.as_slice()[part.row_start + i]);
            }
        }
    }

    /// Runs `body` on every endpoint of a `shards`-shard board, each on its
    /// own scoped thread, and returns the results in shard order.  An
    /// endpoint leaves the board when `body` returns.
    fn on_board<T: Send>(
        shards: usize,
        timeout: Option<Duration>,
        body: impl Fn(ShardComm) -> T + Sync,
    ) -> Vec<T> {
        let body = &body;
        std::thread::scope(|scope| {
            let handles: Vec<_> = build_comms(shards, timeout)
                .into_iter()
                .map(|comm| scope.spawn(move || body(comm)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn board_reduce_and_vote_roundtrip() {
        let results = on_board(3, None, |mut comm| {
            let s = comm.shard() as f64;
            let r = comm.try_reduce(&[s, 1.0]).unwrap();
            let ok = comm.try_barrier_all_ok(comm.shard() != 1).unwrap();
            let all = comm.try_barrier_all_ok(true).unwrap();
            (r, ok, all)
        });
        for (r, ok, all) in results {
            assert_eq!(r, 0.0 + 1.0 + 1.0 + 1.0 + 2.0 + 1.0);
            assert!(!ok, "one dissenting vote fails the barrier");
            assert!(all);
        }
    }

    #[test]
    fn a_stalled_shard_is_named_and_every_shard_ends_typed() {
        let peers_gave_up = std::sync::Barrier::new(3);
        let results = on_board(3, Some(Duration::from_millis(50)), |mut comm| {
            if comm.shard() == 2 {
                peers_gave_up.wait();
                return comm.try_reduce(&[1.0]);
            }
            let result = comm.try_reduce(&[1.0]);
            peers_gave_up.wait();
            result
        });
        let stalled = Err(CommError::Stalled {
            waiting_on: vec![2],
        });
        assert_eq!(
            results.iter().filter(|&r| *r == stalled).count(),
            1,
            "the first shard to time out names the stalled shard: {results:?}"
        );
        for (s, r) in results.iter().enumerate() {
            assert!(
                *r == stalled || *r == Err(CommError::Aborted { shard: s }),
                "shard {s} must end in a typed error, got {r:?}"
            );
        }
    }

    #[test]
    fn early_exit_aborts_the_survivor_instead_of_hanging() {
        let results = on_board(2, None, |mut comm| {
            if comm.shard() == 0 {
                // Leaves before the round, as an unrecoverable local
                // failure would.
                return Ok(0.0);
            }
            comm.try_reduce(&[1.0])
        });
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(CommError::Aborted { shard: 1 }));
    }

    #[test]
    fn a_withheld_message_is_typed_without_a_timeout() {
        struct DropAll;
        impl CommInterposer for DropAll {
            fn on_halo_send(&mut self, _from: usize, _to: usize, _seq: u64) -> CommAction {
                CommAction::Drop
            }
        }
        let plans = [
            HaloPlan {
                halo_cols: vec![1],
                recv_ranges: vec![(0, 0), (0, 1)],
                send_rows: vec![Vec::new(), vec![0]],
            },
            HaloPlan {
                halo_cols: vec![0],
                recv_ranges: vec![(0, 1), (0, 0)],
                send_rows: vec![vec![0], Vec::new()],
            },
        ];
        let results = on_board(2, None, |mut comm| {
            let s = comm.shard();
            if s == 1 {
                comm.set_interposer(Box::new(DropAll));
            }
            let mut halo = [0.0];
            comm.try_halo_exchange(&plans[s], &[s as f64 + 1.0], &mut halo)
                .map(|()| halo[0])
        });
        assert_eq!(results[0], Err(CommError::Withheld { shard: 0, peer: 1 }));
        assert_eq!(results[1], Ok(1.0), "shard 0's message still arrives");
    }

    #[test]
    fn mismatched_ops_are_a_protocol_error() {
        let results = on_board(2, None, |mut comm| {
            if comm.shard() == 0 {
                comm.try_reduce(&[1.0]).map(drop)
            } else {
                comm.try_barrier_all_ok(true).map(drop)
            }
        });
        for r in results {
            assert!(matches!(r, Err(CommError::Protocol(_))), "got {r:?}");
        }
    }

    #[test]
    fn a_one_shard_board_crosses_without_waiting() {
        let mut comm = build_comms(1, None).pop().unwrap();
        let plan = HaloPlan {
            halo_cols: Vec::new(),
            recv_ranges: vec![(0, 0)],
            send_rows: vec![Vec::new()],
        };
        comm.try_halo_exchange(&plan, &[1.0], &mut []).unwrap();
        assert_eq!(comm.try_reduce(&[1.0, 2.0]), Ok(3.0));
        assert_eq!(comm.try_barrier_all_ok(false), Ok(false));
        assert_eq!((comm.halo_doubles_sent(), comm.reduce_rounds()), (0, 1));
    }

    #[test]
    #[should_panic(expected = "halo recv ranges must cover the buffer")]
    fn halo_plan_gap_is_rejected() {
        let plan = HaloPlan {
            halo_cols: vec![3, 9],
            recv_ranges: vec![(0, 1), (1, 1)],
            send_rows: vec![Vec::new(), Vec::new()],
        };
        plan.validate();
    }

    #[test]
    #[should_panic(expected = "halo recv range 1..2 overlaps")]
    fn aliased_halo_recv_ranges_panic() {
        // Two peers scatter into slot 1 while slot 2 stays unwritten: the
        // lengths add up (2 + 1 = 3 = halo_len), the cursor does not.
        let plan = HaloPlan {
            halo_cols: vec![3, 7, 9],
            recv_ranges: vec![(0, 2), (1, 2)],
            send_rows: vec![Vec::new(), Vec::new()],
        };
        plan.validate();
    }

    #[test]
    #[should_panic(expected = "halo recv range bounds")]
    fn out_of_bounds_halo_recv_range_panics() {
        let plan = HaloPlan {
            halo_cols: vec![3, 7],
            recv_ranges: vec![(0, 3)],
            send_rows: vec![Vec::new()],
        };
        plan.validate();
    }
}
