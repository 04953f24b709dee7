//! Domain-decomposed (sharded) view of the global system: the distributed
//! CSR layout, the halo-exchange plan, and the channel-based communication
//! substrate the sharded solver loops run on.
//!
//! The paper's evaluation runs on 256–2,048 MPI ranks; this module makes
//! that decomposition *real* inside one process.  [`ShardLayout`] extends
//! [`BlockRowPartition`](crate::partition::BlockRowPartition) from a
//! byte-accounting description into an executable layout: the global rows
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
//!    storage order; only column *indices* are remapped.  Every per-row
//!    sum in [`ShardedCsr::spmv_seq`] therefore traverses the same values
//!    in the same order at any shard count, and halo values are exact
//!    copies of their owners, so `y = A x` is reproduced bit-for-bit.
//! 2. **Blockwise two-phase reductions.**  A global dot product is never
//!    formed by pre-summing a shard's rows (shard-sized fold trees would
//!    differ across shard counts).  Instead every shard emits one partial
//!    *per reduction block* — a pure function of the block's contents —
//!    and the coordinator concatenates the shard vectors in shard order
//!    (equal to ascending global block order, because shards own
//!    contiguous block ranges) and folds them sequentially.  The fold
//!    sequence is identical for 1, 2 or 4 shards.
//!
//! The exchange itself runs over per-pair `std::sync::mpsc` channels with
//! a fixed gather order (ascending peer rank), so message contents are
//! deterministic regardless of thread scheduling.  Under the `racecheck`
//! feature every halo receive range is claimed in a
//! [`ClaimSet`](rayon::racecheck::ClaimSet), catching overlapping or
//! out-of-bounds scatter targets at runtime.

use crate::partition::BlockRowPartition;
use crate::{simd, CsrMatrix, Vector};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
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
/// blocks are distributed over shards via [`BlockRowPartition`] (first
/// `nblocks % shards` shards get one extra block), so every shard owns a
/// contiguous, block-aligned row range.  Shards beyond the block count own
/// zero rows but still participate in every reduction and barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    n: usize,
    block: usize,
    blocks: BlockRowPartition,
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
        let nblocks = n.div_ceil(block);
        ShardLayout {
            n,
            block,
            blocks: BlockRowPartition::new(nblocks, shards),
        }
    }

    /// Total number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.blocks.ranks()
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
        let r = self.blocks.range(shard);
        (
            (r.start * self.block).min(self.n),
            (r.end * self.block).min(self.n),
        )
    }

    /// Number of rows owned by `shard`.
    pub fn rows(&self, shard: usize) -> usize {
        let (s, e) = self.range(shard);
        e - s
    }

    /// The shard owning global row `row` (closed-form via the block
    /// partition's O(1) owner computation).
    ///
    /// # Panics
    /// Panics if `row >= n`.
    pub fn owner(&self, row: usize) -> usize {
        assert!(row < self.n, "row out of range");
        self.blocks.owner(row / self.block)
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

    /// Validates the receive side of the plan: ranges must be in-bounds,
    /// mutually disjoint and cover the halo buffer exactly.  Claims each in
    /// a [`ClaimSet`](rayon::racecheck::ClaimSet), so under the `racecheck`
    /// feature an overlapping or out-of-bounds range panics with the claim
    /// diagnostics.
    ///
    /// # Panics
    /// Panics if the ranges overlap, run out of bounds, or leave gaps.
    pub fn validate(&self) {
        let claims = rayon::racecheck::ClaimSet::new(self.halo_len());
        let mut covered = 0usize;
        for &(s, e) in &self.recv_ranges {
            assert!(s <= e && e <= self.halo_len(), "halo recv range bounds");
            if s != e {
                claims.claim(s, e);
                covered += e - s;
            }
        }
        assert_eq!(covered, self.halo_len(), "halo recv ranges must cover the buffer");
    }
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
    /// (`ncols == rows + halo_len`).
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

    /// Sequential local product `y = A_local · x_ext` traversing every
    /// row's entries in global storage order — the carried-start traversal
    /// whose per-row sums are identical at any shard count.  The shard
    /// loops are the unit of parallelism here; no pool is consulted.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn spmv_seq(&self, x_ext: &[f64], y: &mut [f64]) {
        assert_eq!(x_ext.len(), self.ext_len(), "spmv_seq: x length");
        assert_eq!(y.len(), self.rows(), "spmv_seq: y length");
        let indptr = self.local.indptr();
        let indices = self.local.indices();
        let values = self.local.values();
        for (i, out) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in indptr[i]..indptr[i + 1] {
                acc += values[k] * x_ext[indices[k]];
            }
            *out = acc;
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
                    .find(|&k| indices[k] == i)
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
                .copied()
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
                    let c = indices[k];
                    let lc = if c >= r0 && c < r1 {
                        c - r0
                    } else {
                        rows + halo_cols.binary_search(&c).expect("halo column indexed")
                    };
                    l_indices.push(lc);
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
// Communication substrate
// ---------------------------------------------------------------------------

/// A typed communication failure in the sharded protocol.
///
/// Every supervised failure mode — peer stall, dropped message, dead
/// coordinator, coordinated abort — surfaces as one of these instead of a
/// panic or a hang, so a faulted run always ends in a *typed* error the
/// caller can classify (the safety invariant of the chaos soak).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A halo receive from `peer` did not arrive within the timeout.
    PeerTimeout {
        /// The waiting shard.
        shard: usize,
        /// The peer whose message never came.
        peer: usize,
    },
    /// A halo channel to/from `peer` disconnected (the peer exited).
    PeerClosed {
        /// The shard observing the disconnect.
        shard: usize,
        /// The disconnected peer.
        peer: usize,
    },
    /// The coordinator's request/reply channel is gone.
    CoordinatorGone {
        /// The shard observing the disconnect.
        shard: usize,
    },
    /// The coordinator aborted the round (another shard stalled, failed,
    /// or broke lockstep) and this shard must unwind.
    Aborted {
        /// The aborted shard.
        shard: usize,
    },
    /// The coordinator detected a stall: no request arrived within the
    /// heartbeat timeout while these shards still owed one.
    Stalled {
        /// Live shards that never sent their round request.
        waiting_on: Vec<usize>,
    },
    /// The lockstep protocol was violated (mixed round / wrong reply).
    Protocol(String),
}

impl std::fmt::Display for CommError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommError::PeerTimeout { shard, peer } => {
                write!(f, "shard {shard}: halo receive from peer {peer} timed out")
            }
            CommError::PeerClosed { shard, peer } => {
                write!(f, "shard {shard}: peer {peer} disconnected")
            }
            CommError::CoordinatorGone { shard } => {
                write!(f, "shard {shard}: coordinator disconnected")
            }
            CommError::Aborted { shard } => {
                write!(f, "shard {shard}: round aborted by the coordinator")
            }
            CommError::Stalled { waiting_on } => {
                write!(f, "coordinator: stall detected waiting on shards {waiting_on:?}")
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
    /// Silently drop it — the receiving peer's timeout turns the loss
    /// into a typed [`CommError::PeerTimeout`].
    Drop,
}

/// Hook invoked before every outbound halo message — the seam the chaos
/// engine injects message delay, drop, and peer stall through.  An
/// implementation may sleep before returning (delay/stall) and decides
/// per message whether it is delivered.  The production path has no
/// interposer and pays nothing.
pub trait CommInterposer: Send {
    /// Called before halo message number `seq` (per sending endpoint,
    /// 0-based) from `from` to `to`.
    fn on_halo_send(&mut self, from: usize, to: usize, seq: u64) -> CommAction;
}

/// A request from one shard to the coordinator.  Lockstep execution
/// guarantees every live shard issues the *same* variant each round.
enum Request {
    /// Phase-one partials of a batched reduction: one inner vector per
    /// reduced quantity, each holding this shard's per-block partials.
    Reduce { shard: usize, partials: Vec<Vec<f64>> },
    /// An all-ok barrier vote (epoch commit, recovery synchronisation).
    Barrier { shard: usize, ok: bool },
    /// The shard's solver loop has finished.
    Done { shard: usize },
}

impl Request {
    fn shard(&self) -> usize {
        match *self {
            Request::Reduce { shard, .. }
            | Request::Barrier { shard, .. }
            | Request::Done { shard } => shard,
        }
    }
}

/// A coordinator reply broadcast to every live shard.
#[derive(Clone)]
enum Reply {
    /// One reduced scalar per quantity.
    Reduced(Vec<f64>),
    /// Conjunction of the barrier votes.
    Barrier(bool),
    /// The round cannot complete (a peer stalled, failed, or broke
    /// lockstep): unwind with a typed error.
    Abort,
}

/// One shard's endpoint of the communication substrate: direct per-pair
/// channels for halo exchange plus a request/reply pair to the
/// [`ShardCoordinator`] for reductions and barriers.
pub struct ShardComm {
    shard: usize,
    shards: usize,
    to_coord: Sender<Request>,
    from_coord: Receiver<Reply>,
    halo_tx: Vec<Option<Sender<Vec<f64>>>>,
    halo_rx: Vec<Option<Receiver<Vec<f64>>>>,
    halo_doubles: u64,
    reduce_rounds: u64,
    halo_msgs: u64,
    timeout: Option<Duration>,
    interposer: Option<Box<dyn CommInterposer>>,
}

impl ShardComm {
    /// This endpoint's shard rank.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Number of shards in the run.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Total `f64` values this shard has sent in halo messages.
    pub fn halo_doubles_sent(&self) -> u64 {
        self.halo_doubles
    }

    /// Number of reduction rounds this shard has participated in.
    pub fn reduce_rounds(&self) -> u64 {
        self.reduce_rounds
    }

    /// Sets the halo-receive timeout.  `None` (the default) waits
    /// forever — the pre-supervision behaviour; with a timeout a stalled
    /// or dropped peer message becomes [`CommError::PeerTimeout`] instead
    /// of a hang.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// Installs a [`CommInterposer`] on this endpoint's outbound halo
    /// messages (the chaos-injection seam).
    pub fn set_interposer(&mut self, interposer: Box<dyn CommInterposer>) {
        self.interposer = Some(interposer);
    }

    /// One deterministic halo exchange: scatters `owned` values to every
    /// peer per `plan.send_rows`, then gathers peer messages into `halo`
    /// in ascending peer order.  Receive ranges are claimed in a
    /// [`ClaimSet`](rayon::racecheck::ClaimSet) so the `racecheck` feature
    /// verifies disjointness and bounds on every exchange.
    ///
    /// # Errors
    /// [`CommError::PeerClosed`] if a peer endpoint is gone,
    /// [`CommError::PeerTimeout`] if a receive exceeds the configured
    /// timeout.
    ///
    /// # Panics
    /// Panics on plan/buffer length mismatch.
    pub fn try_halo_exchange(
        &mut self,
        plan: &HaloPlan,
        owned: &[f64],
        halo: &mut [f64],
    ) -> Result<(), CommError> {
        assert_eq!(halo.len(), plan.halo_len(), "halo buffer length");
        let claims = rayon::racecheck::ClaimSet::new(halo.len());
        for (peer, rows) in plan.send_rows.iter().enumerate() {
            if rows.is_empty() {
                continue;
            }
            let seq = self.halo_msgs;
            self.halo_msgs += 1;
            if let Some(interposer) = self.interposer.as_mut() {
                if interposer.on_halo_send(self.shard, peer, seq) == CommAction::Drop {
                    continue;
                }
            }
            let msg: Vec<f64> = rows.iter().map(|&i| owned[i]).collect();
            self.halo_doubles += msg.len() as u64;
            if self.halo_tx[peer]
                .as_ref()
                .expect("send list targets a peer channel")
                .send(msg)
                .is_err()
            {
                return Err(CommError::PeerClosed {
                    shard: self.shard,
                    peer,
                });
            }
        }
        for (peer, &(s, e)) in plan.recv_ranges.iter().enumerate() {
            if s == e {
                continue;
            }
            claims.claim(s, e);
            let rx = self.halo_rx[peer]
                .as_ref()
                .expect("recv range names a peer channel");
            let msg = match self.timeout {
                None => rx.recv().map_err(|_| CommError::PeerClosed {
                    shard: self.shard,
                    peer,
                })?,
                Some(t) => rx.recv_timeout(t).map_err(|e| match e {
                    RecvTimeoutError::Timeout => CommError::PeerTimeout {
                        shard: self.shard,
                        peer,
                    },
                    RecvTimeoutError::Disconnected => CommError::PeerClosed {
                        shard: self.shard,
                        peer,
                    },
                })?,
            };
            assert_eq!(msg.len(), e - s, "halo message length mismatch");
            halo[s..e].copy_from_slice(&msg);
        }
        Ok(())
    }

    fn recv_reply(&mut self) -> Result<Reply, CommError> {
        self.from_coord.recv().map_err(|_| CommError::CoordinatorGone {
            shard: self.shard,
        })
    }

    /// Phase two of the deterministic reduction: submits this shard's
    /// per-block partials (one inner vector per quantity) and blocks until
    /// the coordinator returns the globally folded scalars.
    ///
    /// # Errors
    /// [`CommError::CoordinatorGone`] if the coordinator is gone,
    /// [`CommError::Aborted`] if it aborted the round, or
    /// [`CommError::Protocol`] on a desynchronized reply.
    pub fn try_reduce(&mut self, partials: Vec<Vec<f64>>) -> Result<Vec<f64>, CommError> {
        self.reduce_rounds += 1;
        self.to_coord
            .send(Request::Reduce {
                shard: self.shard,
                partials,
            })
            .map_err(|_| CommError::CoordinatorGone { shard: self.shard })?;
        match self.recv_reply()? {
            Reply::Reduced(v) => Ok(v),
            Reply::Abort => Err(CommError::Aborted { shard: self.shard }),
            Reply::Barrier(_) => Err(CommError::Protocol(
                "expected reduction reply, got barrier".into(),
            )),
        }
    }

    /// All-ok barrier: blocks until every shard has voted and returns the
    /// conjunction (the epoch-commit rule: an epoch is recoverable only
    /// when *all* shard segments landed).
    ///
    /// # Errors
    /// Same contract as [`ShardComm::try_reduce`].
    pub fn try_barrier_all_ok(&mut self, ok: bool) -> Result<bool, CommError> {
        self.to_coord
            .send(Request::Barrier {
                shard: self.shard,
                ok,
            })
            .map_err(|_| CommError::CoordinatorGone { shard: self.shard })?;
        match self.recv_reply()? {
            Reply::Barrier(all_ok) => Ok(all_ok),
            Reply::Abort => Err(CommError::Aborted { shard: self.shard }),
            Reply::Reduced(_) => Err(CommError::Protocol(
                "expected barrier reply, got reduction".into(),
            )),
        }
    }

    /// Announces this shard's completion and consumes the endpoint.
    pub fn finish(self) {
        // The coordinator exits once every shard reports done; a shard
        // racing ahead of a coordinator that already shut down is fine.
        let _ = self.to_coord.send(Request::Done { shard: self.shard });
    }
}

/// The reduction/barrier coordinator: runs on the executor thread,
/// servicing lockstep rounds until every shard reports done.
// lcr-analyze: allow(dead-public-item): returned by `build_comms`; the executor drives it by inference
pub struct ShardCoordinator {
    shards: usize,
    rx: Receiver<Request>,
    tx: Vec<Sender<Reply>>,
    timeout: Option<Duration>,
}

impl ShardCoordinator {
    /// Sets the heartbeat timeout for stall detection: if a round stays
    /// incomplete for this long, the coordinator declares the missing
    /// shards stalled, aborts every waiting shard, drains the rest and
    /// returns [`CommError::Stalled`] from
    /// [`try_serve`](ShardCoordinator::try_serve).  `None` (the default)
    /// waits forever — the pre-supervision behaviour where only an
    /// explicit kill was detectable.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) {
        self.timeout = timeout;
    }

    /// Services rounds until every shard has sent [`ShardComm::finish`],
    /// with supervision.
    ///
    /// Each round collects exactly one request per live shard, requires
    /// them to be the same variant (the solver loops run in lockstep),
    /// folds reduction partials in shard order — ascending global block
    /// order — and broadcasts the reply.
    ///
    /// Supervision departs from the strict lockstep in two ways.  If a
    /// round stays incomplete past the heartbeat timeout, the missing
    /// shards are declared stalled ([`CommError::Stalled`]).  If `Done`
    /// arrives mixed into a reduce/barrier round — a shard unwound with
    /// an error while its peers kept computing — the round can never
    /// complete and is aborted.  In both cases every waiting shard
    /// receives an abort reply (so it unwinds with
    /// [`CommError::Aborted`] instead of hanging), remaining requests are
    /// drained until all shards finished, and the first failure is
    /// returned — shards are always joinable afterwards.
    ///
    /// # Errors
    /// [`CommError::Stalled`] on heartbeat expiry,
    /// [`CommError::Aborted`] when lockstep broke,
    /// [`CommError::CoordinatorGone`] if a shard endpoint vanished
    /// mid-round, [`CommError::Protocol`] on a duplicate or mixed
    /// non-`Done` request.
    pub fn try_serve(&mut self) -> Result<(), CommError> {
        let mut done = vec![false; self.shards];
        let mut live = self.shards;
        while live > 0 {
            let mut slots: Vec<Option<Request>> = (0..self.shards).map(|_| None).collect();
            let round = live;
            for _ in 0..round {
                let req = match self.recv_request() {
                    Ok(req) => req,
                    Err(e) => {
                        // Stall or disconnect mid-round: abort everyone
                        // already waiting for a reply, then drain.
                        let waiting: Vec<usize> = slots
                            .iter()
                            .enumerate()
                            .filter_map(|(s, r)| r.as_ref().map(|_| s))
                            .collect();
                        let err = match e {
                            RecvTimeoutError::Timeout => CommError::Stalled {
                                waiting_on: (0..self.shards)
                                    .filter(|&s| !done[s] && slots[s].is_none())
                                    .collect(),
                            },
                            RecvTimeoutError::Disconnected => {
                                CommError::CoordinatorGone { shard: usize::MAX }
                            }
                        };
                        consume_done_slots(&slots, &mut done, &mut live);
                        self.abort_and_drain(waiting, &mut done, &mut live);
                        return Err(err);
                    }
                };
                let s = req.shard();
                if done[s] || slots[s].is_some() {
                    return Err(CommError::Protocol(format!(
                        "duplicate request from shard {s}"
                    )));
                }
                slots[s] = Some(req);
            }
            let requests: Vec<(usize, Request)> = slots
                .into_iter()
                .enumerate()
                .filter_map(|(s, r)| r.map(|r| (s, r)))
                .collect();
            let n_done = requests
                .iter()
                .filter(|(_, r)| matches!(r, Request::Done { .. }))
                .count();
            if n_done > 0 {
                // Every Done shard is finished for good; if anything else
                // is in the round, lockstep broke (a shard erred out early)
                // and the survivors must unwind.
                let mut waiting = Vec::new();
                for (s, req) in &requests {
                    if matches!(req, Request::Done { .. }) {
                        done[*s] = true;
                        live -= 1;
                    } else {
                        waiting.push(*s);
                    }
                }
                if !waiting.is_empty() {
                    self.abort_and_drain(waiting.clone(), &mut done, &mut live);
                    return Err(CommError::Aborted {
                        shard: waiting[0],
                    });
                }
                continue;
            }
            match requests.first() {
                Some((_, Request::Reduce { .. })) => {
                    let nq = match &requests[0].1 {
                        Request::Reduce { partials, .. } => partials.len(),
                        _ => unreachable!(),
                    };
                    let mut scalars = vec![0.0f64; nq];
                    // Shard order == ascending global block order: the
                    // fold sequence is independent of the shard count.
                    for (_, req) in &requests {
                        let Request::Reduce { partials, .. } = req else {
                            return Err(CommError::Protocol("mixed reduce round".into()));
                        };
                        assert_eq!(partials.len(), nq, "reduction quantity count");
                        for (q, blocks) in partials.iter().enumerate() {
                            for &p in blocks {
                                scalars[q] += p;
                            }
                        }
                    }
                    for (s, _) in &requests {
                        let _ = self.tx[*s].send(Reply::Reduced(scalars.clone()));
                    }
                }
                Some((_, Request::Barrier { .. })) => {
                    let mut all_ok = true;
                    for (_, req) in &requests {
                        let Request::Barrier { ok, .. } = req else {
                            return Err(CommError::Protocol("mixed barrier round".into()));
                        };
                        all_ok &= ok;
                    }
                    for (s, _) in &requests {
                        let _ = self.tx[*s].send(Reply::Barrier(all_ok));
                    }
                }
                _ => unreachable!("done rounds handled above; rounds are never empty"),
            }
        }
        Ok(())
    }

    fn recv_request(&mut self) -> Result<Request, RecvTimeoutError> {
        match self.timeout {
            None => self
                .rx
                .recv()
                .map_err(|_| RecvTimeoutError::Disconnected),
            Some(t) => self.rx.recv_timeout(t),
        }
    }

    /// Sends [`Reply::Abort`] to every shard in `waiting`, then keeps
    /// servicing requests — replying abort to everything but `Done` —
    /// until every live shard has finished, so the executor can always
    /// join its shard threads.
    fn abort_and_drain(&mut self, waiting: Vec<usize>, done: &mut [bool], live: &mut usize) {
        for s in waiting {
            let _ = self.tx[s].send(Reply::Abort);
        }
        while *live > 0 {
            let req = match self.recv_request() {
                Ok(req) => req,
                // Disconnect means every endpoint is gone — nothing left
                // to join.  A timeout here means a shard is still stalled;
                // keep waiting (its own halo timeout bounds the stall) so
                // the join below cannot deadlock while endpoints exist.
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => break,
            };
            match req {
                Request::Done { shard } => {
                    if !done[shard] {
                        done[shard] = true;
                        *live -= 1;
                    }
                }
                other => {
                    let _ = self.tx[other.shard()].send(Reply::Abort);
                }
            }
        }
    }
}

/// Helper for the mid-round failure path: consumes any `Done` requests
/// already collected in `slots` — those shards are finished and must not
/// be waited for during the drain.
fn consume_done_slots(slots: &[Option<Request>], done: &mut [bool], live: &mut usize) {
    for (s, slot) in slots.iter().enumerate() {
        if let Some(Request::Done { .. }) = slot {
            if !done[s] {
                done[s] = true;
                *live -= 1;
            }
        }
    }
}

/// Builds the communication substrate for `shards` shards: one
/// [`ShardComm`] endpoint per shard plus the [`ShardCoordinator`] the
/// executor thread must [`try_serve`](ShardCoordinator::try_serve).
pub fn build_comms(shards: usize) -> (Vec<ShardComm>, ShardCoordinator) {
    assert!(shards > 0, "at least one shard");
    let (req_tx, req_rx) = channel::<Request>();
    let mut reply_tx = Vec::with_capacity(shards);
    let mut reply_rx = Vec::with_capacity(shards);
    for _ in 0..shards {
        let (tx, rx) = channel::<Reply>();
        reply_tx.push(tx);
        reply_rx.push(rx);
    }
    // Per-ordered-pair halo channels: halo[(from, to)].
    let mut halo_tx: Vec<Vec<Option<Sender<Vec<f64>>>>> =
        (0..shards).map(|_| (0..shards).map(|_| None).collect()).collect();
    let mut halo_rx: Vec<Vec<Option<Receiver<Vec<f64>>>>> =
        (0..shards).map(|_| (0..shards).map(|_| None).collect()).collect();
    for from in 0..shards {
        for to in 0..shards {
            if from == to {
                continue;
            }
            let (tx, rx) = channel::<Vec<f64>>();
            halo_tx[from][to] = Some(tx);
            halo_rx[to][from] = Some(rx);
        }
    }
    let comms = reply_rx
        .into_iter()
        .zip(halo_tx)
        .zip(halo_rx)
        .enumerate()
        .map(|(shard, ((from_coord, tx), rx))| ShardComm {
            shard,
            shards,
            to_coord: req_tx.clone(),
            from_coord,
            halo_tx: tx,
            halo_rx: rx,
            halo_doubles: 0,
            reduce_rounds: 0,
            halo_msgs: 0,
            timeout: None,
            interposer: None,
        })
        .collect();
    let coordinator = ShardCoordinator {
        shards,
        rx: req_rx,
        tx: reply_tx,
        timeout: None,
    };
    (comms, coordinator)
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
        let a = poisson3d(8); // 512 rows
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let mut y_global = vec![0.0; n];
        // Reference: the same carried-start traversal on the global matrix.
        let (ip, ix, vs) = (a.indptr(), a.indices(), a.values());
        for i in 0..n {
            let mut acc = 0.0;
            for k in ip[i]..ip[i + 1] {
                acc += vs[k] * x[ix[k]];
            }
            y_global[i] = acc;
        }
        for shards in [1, 2, 3, 4] {
            let layout = ShardLayout::with_block(n, shards, 64);
            let parts = partition_csr(&a, &layout);
            for part in &parts {
                let (r0, r1) = layout.range(part.shard);
                // Assemble the extended vector by hand (exact halo copies).
                let mut x_ext = x[r0..r1].to_vec();
                x_ext.extend(part.halo.halo_cols.iter().map(|&c| x[c]));
                let mut y = vec![0.0; part.rows()];
                part.spmv_seq(&x_ext, &mut y);
                for (i, &v) in y.iter().enumerate() {
                    assert_eq!(
                        v.to_bits(),
                        y_global[r0 + i].to_bits(),
                        "row {} at {shards} shards",
                        r0 + i
                    );
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

    #[test]
    fn comm_reduce_and_barrier_roundtrip() {
        let (comms, mut coord) = build_comms(3);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                // lcr-analyze: allow(thread-spawn): unit test exercising the
                // coordinator protocol needs real concurrent endpoints.
                std::thread::spawn(move || {
                    let s = comm.shard() as f64;
                    let r = comm.try_reduce(vec![vec![s, 1.0], vec![2.0 * s]]).unwrap();
                    let ok = comm.try_barrier_all_ok(comm.shard() != 1).unwrap();
                    let all = comm.try_barrier_all_ok(true).unwrap();
                    comm.finish();
                    (r, ok, all)
                })
            })
            .collect();
        coord.try_serve().unwrap();
        for h in handles {
            let (r, ok, all) = h.join().unwrap();
            assert_eq!(r, vec![0.0 + 1.0 + 1.0 + 1.0 + 2.0 + 1.0, 6.0]);
            assert!(!ok, "one dissenting vote fails the barrier");
            assert!(all);
        }
    }

    #[test]
    fn coordinator_detects_a_stalled_shard_and_aborts_the_rest() {
        let (comms, mut coord) = build_comms(3);
        coord.set_timeout(Some(Duration::from_millis(50)));
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                // lcr-analyze: allow(thread-spawn): unit test exercising the
                // supervised coordinator needs real concurrent endpoints.
                std::thread::spawn(move || {
                    let result = if comm.shard() == 2 {
                        // Shard 2 stalls for 10x the heartbeat before ever
                        // sending its round request.
                        std::thread::sleep(Duration::from_millis(500));
                        comm.try_reduce(vec![vec![1.0]])
                    } else {
                        comm.try_reduce(vec![vec![1.0]])
                    };
                    comm.finish();
                    result
                })
            })
            .collect();
        let served = coord.try_serve();
        assert_eq!(
            served,
            Err(CommError::Stalled { waiting_on: vec![2] }),
            "heartbeat must name the stalled shard"
        );
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // The healthy shards were aborted (typed error, no hang); the
        // stalled shard's late request is aborted by the drain.
        for (s, r) in results.iter().enumerate() {
            assert!(r.is_err(), "shard {s} must surface a typed error, got {r:?}");
        }
    }

    #[test]
    fn early_shard_exit_aborts_survivors_instead_of_hanging() {
        let (comms, mut coord) = build_comms(2);
        coord.set_timeout(Some(Duration::from_millis(2000)));
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut comm| {
                // lcr-analyze: allow(thread-spawn): unit test exercising the
                // supervised coordinator needs real concurrent endpoints.
                std::thread::spawn(move || {
                    if comm.shard() == 0 {
                        // Shard 0 errors out before the round (simulating an
                        // unrecoverable local failure) and reports done.
                        comm.finish();
                        Ok(Vec::new())
                    } else {
                        let r = comm.try_reduce(vec![vec![1.0]]);
                        comm.finish();
                        r
                    }
                })
            })
            .collect();
        let served = coord.try_serve();
        assert!(served.is_err(), "mixed done round must fail the run");
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(results[0].is_ok());
        assert_eq!(results[1], Err(CommError::Aborted { shard: 1 }));
    }

    #[test]
    fn dropped_halo_message_times_out_with_a_typed_error() {
        struct DropAll;
        impl CommInterposer for DropAll {
            fn on_halo_send(&mut self, _from: usize, _to: usize, _seq: u64) -> CommAction {
                CommAction::Drop
            }
        }
        let plan01 = HaloPlan {
            halo_cols: vec![1],
            recv_ranges: vec![(0, 0), (0, 1)],
            send_rows: vec![Vec::new(), vec![0]],
        };
        let plan10 = HaloPlan {
            halo_cols: vec![0],
            recv_ranges: vec![(0, 1), (0, 0)],
            send_rows: vec![vec![0], Vec::new()],
        };
        let (mut comms, mut coord) = build_comms(2);
        let mut c1 = comms.pop().unwrap();
        let mut c0 = comms.pop().unwrap();
        c0.set_timeout(Some(Duration::from_millis(40)));
        c1.set_timeout(Some(Duration::from_millis(40)));
        c1.set_interposer(Box::new(DropAll));
        coord.set_timeout(Some(Duration::from_millis(2000)));
        // lcr-analyze: allow(thread-spawn): unit test exercising the halo
        // timeout path needs a real concurrent peer endpoint.
        let h1 = std::thread::spawn(move || {
            let mut halo = vec![0.0; 1];
            // Shard 1 drops its outbound message but still receives fine.
            let r = c1.try_halo_exchange(&plan10, &[2.0], &mut halo);
            c1.finish();
            r
        });
        let mut halo = vec![0.0; 1];
        let r0 = c0.try_halo_exchange(&plan01, &[1.0], &mut halo);
        // Depending on timing the loss surfaces as a timeout (peer still
        // alive) or a disconnect (peer already exited) — both are typed.
        assert!(
            matches!(
                r0,
                Err(CommError::PeerTimeout { shard: 0, peer: 1 })
                    | Err(CommError::PeerClosed { shard: 0, peer: 1 })
            ),
            "dropped message must surface as a typed error, got {r0:?}"
        );
        c0.finish();
        coord.try_serve().unwrap();
        h1.join().unwrap().unwrap();
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
}
