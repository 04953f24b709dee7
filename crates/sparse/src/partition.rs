//! Block-row partitioning of the global system across simulated ranks.
//!
//! The paper runs on 256–2,048 MPI processes, each holding a contiguous
//! block of rows of the global matrix and vectors.  This repository does
//! not run real MPI; instead the partition describes how a distributed run
//! *would* split the data, which is exactly what the checkpoint/PFS model
//! needs to compute per-rank checkpoint sizes (Table 3) and aggregate I/O
//! times (Figures 4–6).

use serde::{Deserialize, Serialize};

/// The contiguous row range owned by one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
// lcr-analyze: allow(dead-public-item): return type of `BlockRowPartition::range`; callers take it by inference
pub struct RankRange {
    /// Rank id (0-based).
    pub rank: usize,
    /// First global row owned by this rank.
    pub start: usize,
    /// One past the last global row owned by this rank.
    pub end: usize,
}

impl RankRange {
    /// Number of rows owned by this rank.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the rank owns no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Whether the global row index belongs to this rank.
    pub fn contains(&self, row: usize) -> bool {
        row >= self.start && row < self.end
    }
}

/// A balanced block-row partition of `n` rows over `ranks` ranks: the first
/// `n % ranks` ranks get one extra row, mirroring PETSc's default layout.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockRowPartition {
    n: usize,
    ranks: usize,
}

impl BlockRowPartition {
    /// Creates a partition of `n` rows over `ranks` ranks.
    ///
    /// # Panics
    /// Panics if `ranks == 0`.
    pub fn new(n: usize, ranks: usize) -> Self {
        assert!(ranks > 0, "partition requires at least one rank");
        BlockRowPartition { n, ranks }
    }

    /// Total number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The row range owned by `rank`.
    ///
    /// # Panics
    /// Panics if `rank >= ranks`.
    pub fn range(&self, rank: usize) -> RankRange {
        assert!(rank < self.ranks, "rank out of range");
        let base = self.n / self.ranks;
        let extra = self.n % self.ranks;
        let start = rank * base + rank.min(extra);
        let len = base + usize::from(rank < extra);
        RankRange {
            rank,
            start,
            end: start + len,
        }
    }

    /// Iterates over all rank ranges.
    pub fn iter(&self) -> impl Iterator<Item = RankRange> + '_ {
        (0..self.ranks).map(move |r| self.range(r))
    }

    /// The rank that owns global row `row`.
    ///
    /// # Panics
    /// Panics if `row >= n`.
    pub fn owner(&self, row: usize) -> usize {
        assert!(row < self.n, "row out of range");
        let base = self.n / self.ranks;
        let extra = self.n % self.ranks;
        let boundary = extra * (base + 1);
        if row < boundary {
            row / (base + 1)
        } else {
            extra + (row - boundary) / base.max(1)
        }
    }

    /// Maximum number of rows owned by any rank (the per-rank size used for
    /// per-process checkpoint accounting).
    pub fn max_local_rows(&self) -> usize {
        self.n / self.ranks + usize::from(!self.n.is_multiple_of(self.ranks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_partition() {
        let p = BlockRowPartition::new(100, 4);
        assert_eq!(p.range(0), RankRange { rank: 0, start: 0, end: 25 });
        assert_eq!(p.range(3), RankRange { rank: 3, start: 75, end: 100 });
        assert_eq!(p.max_local_rows(), 25);
    }

    #[test]
    fn uneven_partition_covers_all_rows_exactly_once() {
        let p = BlockRowPartition::new(103, 4);
        let ranges: Vec<_> = p.iter().collect();
        assert_eq!(ranges.len(), 4);
        assert_eq!(ranges[0].len(), 26);
        assert_eq!(ranges[3].len(), 25);
        // Contiguous coverage.
        assert_eq!(ranges[0].start, 0);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(ranges.last().unwrap().end, 103);
        assert_eq!(p.max_local_rows(), 26);
    }

    #[test]
    fn owner_is_consistent_with_ranges() {
        let p = BlockRowPartition::new(37, 5);
        for row in 0..37 {
            let owner = p.owner(row);
            assert!(p.range(owner).contains(row), "row {row} owner {owner}");
        }
    }

    #[test]
    fn single_rank_owns_everything() {
        let p = BlockRowPartition::new(10, 1);
        assert_eq!(p.range(0).len(), 10);
        assert_eq!(p.owner(9), 0);
    }

    #[test]
    fn more_ranks_than_rows() {
        let p = BlockRowPartition::new(3, 8);
        let total: usize = p.iter().map(|r| r.len()).sum();
        assert_eq!(total, 3);
        assert!(p.range(7).is_empty());
        assert_eq!(p.owner(2), 2);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_panics() {
        let _ = BlockRowPartition::new(10, 0);
    }
}
