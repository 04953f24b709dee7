//! Parallel-file-system performance model.
//!
//! The paper's checkpoint and recovery times are dominated by writing and
//! reading checkpoint data through a shared parallel file system whose
//! aggregate bandwidth is fixed — which is why checkpoint time grows
//! roughly linearly with the number of processes in the weak-scaling study
//! (Figures 4–6: total data grows with scale, bandwidth does not) and why
//! shrinking the data with compression buys an almost proportional time
//! reduction.
//!
//! [`PfsModel`] captures exactly that: a constant aggregate bandwidth, a
//! per-rank bandwidth ceiling (small transfers cannot exceed what one rank's
//! link can push), and a fixed per-operation latency for metadata/open/close
//! costs.  The default calibration reproduces the paper's measurement that
//! one uncompressed ≈78.8 GB checkpoint at 2,048 ranks takes ≈120 s.


/// Storage level a checkpoint is written to.  FTI numbers its levels L1–L4;
/// the paper's evaluation writes every checkpoint to L4, the shared
/// parallel file system, and so does every run here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckpointLevel {
    /// L4: the shared parallel file system (survives whole-system failures).
    Pfs,
}

/// Parameters of the parallel-file-system model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfsModel {
    /// Aggregate write bandwidth of the file system in bytes/second, shared
    /// by all ranks.
    pub aggregate_write_bandwidth: f64,
    /// Aggregate read bandwidth in bytes/second (reads are usually somewhat
    /// faster than writes on Lustre/GPFS-class systems).
    pub aggregate_read_bandwidth: f64,
    /// Maximum bandwidth one rank can drive, in bytes/second.
    pub per_rank_bandwidth: f64,
    /// Fixed per-operation latency in seconds (file open/close, metadata).
    pub latency: f64,
}

impl Default for PfsModel {
    fn default() -> Self {
        Self::bebop_like()
    }
}

impl PfsModel {
    /// The calibration used throughout the reproduction: with 2,048 ranks
    /// checkpointing 78.8 GB of double-precision data, the write takes
    /// ≈120 s (the paper's measured value), i.e. an aggregate write
    /// bandwidth of ≈0.66 GB/s, with reads ≈25 % faster.
    pub fn bebop_like() -> Self {
        PfsModel {
            aggregate_write_bandwidth: 78.8e9 / 119.0,
            aggregate_read_bandwidth: 78.8e9 / 95.0,
            per_rank_bandwidth: 1.2e9,
            latency: 1.0,
        }
    }

    /// Effective bandwidth for `ranks` ranks doing a collective write of
    /// `total_bytes`: limited by both the aggregate ceiling and what the
    /// participating ranks can drive.
    fn effective_bandwidth(&self, aggregate: f64, ranks: usize) -> f64 {
        let rank_limit = self.per_rank_bandwidth * ranks.max(1) as f64;
        aggregate.min(rank_limit).max(f64::MIN_POSITIVE)
    }

    /// Seconds to write `total_bytes` from `ranks` ranks.
    pub fn write_seconds(&self, total_bytes: usize, ranks: usize) -> f64 {
        let bw = self.effective_bandwidth(self.aggregate_write_bandwidth, ranks);
        self.latency + total_bytes as f64 / bw
    }

    /// Seconds to read `total_bytes` back into `ranks` ranks.
    pub fn read_seconds(&self, total_bytes: usize, ranks: usize) -> f64 {
        let bw = self.effective_bandwidth(self.aggregate_read_bandwidth, ranks);
        self.latency + total_bytes as f64 / bw
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bebop_calibration_matches_paper_measurement() {
        // One dynamic vector of 1e10 doubles = 78.8 GB (paper, §3) takes
        // about 120 s to write with 2,048 ranks.
        let pfs = PfsModel::bebop_like();
        let t = pfs.write_seconds(78_800_000_000, 2048);
        assert!((t - 120.0).abs() < 5.0, "write time {t}");
        // Recovery is the same order (paper assumes Trc ≈ Tckp).
        let r = pfs.read_seconds(78_800_000_000, 2048);
        assert!(r > 60.0 && r < 130.0, "read time {r}");
    }

    #[test]
    fn write_time_scales_with_bytes() {
        let pfs = PfsModel::bebop_like();
        let t1 = pfs.write_seconds(10_000_000_000, 1024);
        let t2 = pfs.write_seconds(20_000_000_000, 1024);
        assert!(t2 > t1);
        // Doubling the bytes roughly doubles the transfer part.
        assert!((t2 - pfs.latency) / (t1 - pfs.latency) > 1.9);
    }

    #[test]
    fn compression_reduces_time_proportionally() {
        // The essence of the paper: a 20x smaller checkpoint is ~20x faster
        // to write (minus latency).
        let pfs = PfsModel::bebop_like();
        let full = pfs.write_seconds(78_800_000_000, 2048);
        let compressed = pfs.write_seconds(78_800_000_000 / 20, 2048);
        assert!(full / compressed > 10.0);
    }

    #[test]
    fn few_ranks_hit_per_rank_limit() {
        // An aggregate far above what one rank can drive: a single rank
        // cannot use it, 2,048 ranks can.
        let pfs = PfsModel { aggregate_write_bandwidth: 1e12, ..PfsModel::bebop_like() };
        let one = pfs.write_seconds(10_000_000_000, 1);
        let many = pfs.write_seconds(10_000_000_000, 2048);
        assert_eq!(one, pfs.latency + 1e10 / pfs.per_rank_bandwidth);
        assert!(one > many);
    }

    #[test]
    fn zero_bytes_costs_only_latency() {
        let pfs = PfsModel::bebop_like();
        assert_eq!(
            pfs.write_seconds(0, 64),
            pfs.latency
        );
        assert_eq!(pfs.read_seconds(0, 64), pfs.latency);
    }
}
