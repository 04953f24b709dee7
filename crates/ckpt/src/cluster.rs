//! Simulated cluster description.
//!
//! The paper's weak-scaling study runs the same per-rank problem size on
//! 256–2,048 processes of the Bebop cluster.  Nothing in the numerics of
//! the reproduction needs real MPI ranks — what matters for the performance
//! results is (a) how much checkpoint data the ranks collectively produce,
//! (b) how fast they can compress it, and (c) how fast the shared file
//! system absorbs it.  [`ClusterConfig`] carries (a)–(b); the PFS model in
//! [`crate::pfs`] carries (c).

use serde::{Deserialize, Serialize};

/// Description of the simulated machine for one experiment configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of MPI ranks (processes) in the simulated run.
    pub ranks: usize,
    /// Aggregate compression throughput in bytes/second across all ranks.
    ///
    /// The paper reports SZ compressing at ≈80 GB/s and decompressing at
    /// ≈180 GB/s on 1,024 cores with ≈90 % parallel efficiency (§5.3), so
    /// the default scales 78 MB/s/core for compression.
    pub compression_throughput_per_rank: f64,
    /// Aggregate decompression throughput in bytes/second per rank.
    pub decompression_throughput_per_rank: f64,
    /// Mean time of one solver iteration on this machine, in seconds.  The
    /// experiment harness either measures this on the host and rescales it
    /// or sets it from the paper's reported values (e.g. GMRES ≈1.2 s per
    /// iteration at 2,048 ranks).
    pub iteration_seconds: f64,
}

impl ClusterConfig {
    /// A Bebop-like configuration with the given rank count and
    /// per-iteration cost.
    pub fn bebop_like(ranks: usize, iteration_seconds: f64) -> Self {
        ClusterConfig {
            ranks,
            compression_throughput_per_rank: 78.0e6,
            decompression_throughput_per_rank: 176.0e6,
            iteration_seconds,
        }
    }

    /// Seconds to compress `bytes` of checkpoint data in parallel across
    /// all ranks (the paper: ≈0.5 s for 78.8 GB at 2,048 ranks).
    pub fn compression_seconds(&self, bytes: usize) -> f64 {
        bytes as f64 / (self.compression_throughput_per_rank * self.ranks.max(1) as f64)
    }

    /// Seconds to decompress `bytes` of checkpoint data in parallel (the
    /// paper: ≈0.2 s for 78.8 GB at 2,048 ranks).
    pub fn decompression_seconds(&self, bytes: usize) -> f64 {
        bytes as f64 / (self.decompression_throughput_per_rank * self.ranks.max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compression_time_matches_paper_order() {
        // 78.8 GB at 2,048 ranks: ≈0.5 s compression, ≈0.2 s decompression.
        let c = ClusterConfig::bebop_like(2048, 1.2);
        let comp = c.compression_seconds(78_800_000_000);
        let decomp = c.decompression_seconds(78_800_000_000);
        assert!(comp > 0.3 && comp < 0.8, "compression {comp}");
        assert!(decomp > 0.1 && decomp < 0.4, "decompression {decomp}");
    }

    #[test]
    fn more_ranks_compress_faster() {
        let small = ClusterConfig::bebop_like(256, 1.0);
        let large = ClusterConfig::bebop_like(2048, 1.0);
        let bytes = 10_000_000_000;
        assert!(large.compression_seconds(bytes) < small.compression_seconds(bytes));
    }
}
