//! FTI-like `Protect()` / `Snapshot()` / recover API.
//!
//! Section 4.2 of the paper describes the integration workflow: the
//! application and the solver *register* the variables to checkpoint
//! (`Protect()`), then periodically *save or restore* them (`Snapshot()`).
//! [`FtiContext`] reproduces that API over named binary buffers, charging
//! the simulated clock with the PFS write/read time for every snapshot and
//! recovery and recording everything in up to two tiers of one store type,
//! [`DiskStore`]: an in-memory tier (the store over a [`MemBackend`], which
//! survives an in-process failure) and an optional durable one (the store
//! over whatever backend the caller opened it with).  Both hold the same
//! files — payloads, scalars, strategy tag — so a recovery is the same
//! whichever tier serves it.
//!
//! The context does not know (or care) whether the buffers it is handed are
//! raw vector bytes, losslessly compressed bytes, or SZ-compressed bytes —
//! that choice is the checkpoint *strategy*'s (in `lcr-core`).  It charges
//! I/O time proportional to what it is actually given, which is precisely
//! how lossy checkpointing wins in the paper.

use crate::backend::MemBackend;
use crate::clock::SimClock;
use crate::cluster::ClusterConfig;
use crate::disk::DiskStore;
use crate::pfs::{CheckpointLevel, PfsModel};
use crate::store::{CheckpointBuffer, CheckpointMetadata};
use crate::{CkptError, Result};
use std::sync::Arc;

/// A variable registered for checkpointing.
#[derive(Debug, Clone, PartialEq)]
struct ProtectedVariable {
    /// Identifier (e.g. `"x"`, `"p"`, `"iteration"`).
    pub id: String,
    /// Original (uncompressed) size in bytes; used for compression-ratio
    /// reporting and static-variable accounting.
    pub original_bytes: usize,
}

/// Data handed back by a recovery: the encoded payloads of the recovered
/// checkpoint's whole dependency chain and the simulated seconds the read
/// took.
#[derive(Debug, Clone, PartialEq)]
// lcr-analyze: allow(dead-public-item): return type of `FtiContext::recover`; callers take it by inference
pub struct RecoveredData {
    /// Encoded payloads of every checkpoint in the recovered dependency
    /// chain, anchor first — the last link is the recovered checkpoint
    /// itself.  Anchor-encoded checkpoints recover as a single link;
    /// temporal-delta checkpoints carry their base links so the strategy
    /// can replay the chain (see `lcr-compress`).  Each link is the
    /// payload list per variable id, exactly as snapshot.
    pub chain: Vec<Vec<(String, Vec<u8>)>>,
    /// Iteration at which the recovered checkpoint was taken.
    pub iteration: usize,
    /// Scalars stored alongside the payloads.
    pub scalars: Vec<(String, f64)>,
    /// Strategy tag recorded by the writer.
    pub tag: String,
    /// The recovered checkpoint's id in the tier that served it.  A caller
    /// that cannot decode the payloads hands the whole value to
    /// [`FtiContext::invalidate`] and recovers again.
    pub id: u64,
    /// Whether the durable tier served it (otherwise the in-memory one).
    pub durable: bool,
    /// Simulated seconds spent reading from storage.
    pub read_seconds: f64,
}

impl RecoveredData {
    /// Payloads of the recovered checkpoint itself (the newest chain
    /// link).  Sufficient on its own only for anchor-encoded checkpoints.
    pub fn payloads(&self) -> &[(String, Vec<u8>)] {
        self.chain.last().map(Vec::as_slice).unwrap_or(&[])
    }
}

/// An FTI-like checkpoint context bound to a cluster and PFS model.
#[derive(Debug)]
pub struct FtiContext {
    cluster: ClusterConfig,
    pfs: PfsModel,
    level: CheckpointLevel,
    protected: Vec<ProtectedVariable>,
    /// In-memory tier; `None` after [`FtiContext::without_memory_tier`].
    memory: Option<DiskStore>,
    /// Optional durable tier: every committed snapshot is mirrored into it
    /// and, when attached, recovery reads from it first.
    disk: Option<DiskStore>,
    /// Multiplier applied to payload byte counts for I/O-time accounting.
    ///
    /// The experiment harness solves a host-sized instance of the paper's
    /// matrix family but accounts checkpoint I/O at the paper's scale
    /// (e.g. 2160³ unknowns over 2,048 ranks); setting the byte scale to
    /// the paper-to-local size ratio makes every snapshot/recover charge
    /// the simulated clock as if the full-size data had been written, while
    /// the *real* (small) payload is stored for genuine recovery.
    byte_scale: f64,
}

impl FtiContext {
    /// Creates a context for the given cluster, PFS model and storage level.
    pub fn new(cluster: ClusterConfig, pfs: PfsModel, level: CheckpointLevel) -> Self {
        let memory = DiskStore::open_with_backend("memory", 2, Arc::new(MemBackend::default()))
            .expect("an in-memory backend cannot fail to open");
        FtiContext {
            cluster,
            pfs,
            level,
            protected: Vec::new(),
            memory: Some(memory),
            disk: None,
            byte_scale: 1.0,
        }
    }

    /// Sets the byte-scale multiplier used when billing I/O time (see the
    /// field documentation).  A scale of 1.0 (the default) bills exactly
    /// the stored bytes.
    ///
    /// # Panics
    /// Panics if the scale is not positive and finite.
    pub fn set_byte_scale(&mut self, scale: f64) {
        assert!(scale.is_finite() && scale > 0.0, "invalid byte scale");
        self.byte_scale = scale;
    }

    /// The current byte-scale multiplier.
    pub fn byte_scale(&self) -> f64 {
        self.byte_scale
    }

    /// Registers a variable for checkpointing (the paper's `Protect()`);
    /// re-registering an id updates its original size.
    pub fn protect(&mut self, id: &str, original_bytes: usize) {
        if let Some(existing) = self.protected.iter_mut().find(|v| v.id == id) {
            existing.original_bytes = original_bytes;
        } else {
            self.protected.push(ProtectedVariable {
                id: id.to_string(),
                original_bytes,
            });
        }
    }

    /// The PFS model.
    pub fn pfs(&self) -> &PfsModel {
        &self.pfs
    }

    /// Drops the in-memory tier, for a rank whose memory does not survive
    /// the failures it recovers from: every snapshot then lives in the
    /// attached durable tier alone, and recovery reads nothing else.
    pub fn without_memory_tier(mut self) -> Self {
        self.memory = None;
        self
    }

    /// Attaches a durable disk tier: every committed snapshot is mirrored
    /// into it, and recovery reads the newest valid checkpoint from it.
    pub fn attach_disk_store(&mut self, disk: DiskStore) {
        self.disk = Some(disk);
    }

    /// The attached disk tier, if any.
    pub fn disk_store(&self) -> Option<&DiskStore> {
        self.disk.as_ref()
    }

    /// The attached disk tier, to discard a checkpoint from.
    pub fn disk_store_mut(&mut self) -> Option<&mut DiskStore> {
        self.disk.as_mut()
    }

    /// Detaches and returns the durable tier, leaving the context running
    /// on the in-memory tier alone — the *tier degradation* path: when
    /// disk writes fail persistently, the supervisor drops to the memory
    /// tier and keeps the solver converging instead of aborting.  The
    /// returned store still holds its retry/backoff accounting.
    pub fn detach_disk_store(&mut self) -> Option<DiskStore> {
        self.disk.take()
    }

    /// Simulated seconds a snapshot of `stored_bytes` would take at the
    /// configured byte scale — the duration of the write window, computed
    /// *before* committing anything so the caller can decide whether a
    /// failure struck mid-write (in which case the checkpoint must be
    /// discarded, never committed).
    pub fn planned_write_seconds(&self, stored_bytes: usize) -> f64 {
        let billed_bytes = (stored_bytes as f64 * self.byte_scale) as usize;
        self.pfs.write_seconds(billed_bytes, self.cluster.ranks)
    }

    /// Commits a snapshot whose write window already elapsed on the clock
    /// (the caller advanced it by [`FtiContext::planned_write_seconds`]):
    /// writes the same checkpoint file — payloads, `scalars`, the writing
    /// strategy's `tag` — into the in-memory tier (unless it was dropped)
    /// and then into the durable tier (when one is attached), each through
    /// [`DiskStore::push_from_buffer`].  A tier with write-behind enabled
    /// keeps the buffer for its I/O thread and hands back a recycled arena;
    /// otherwise the buffer comes back untouched.
    ///
    /// `_write_seconds` is not read: the clock already holds it.  The
    /// parameter stays only because `lcr_benchmark`'s replica of the runner
    /// passes it.
    ///
    /// `delta_order` of `Some(1 | 2)` records the checkpoint as a temporal
    /// delta of that order against the previous snapshot in *both* tiers
    /// (the encoding must match what the strategy actually wrote into the
    /// buffer); `None` records a self-contained anchor.
    ///
    /// # Errors
    /// [`crate::CkptError::Io`] if the durable write fails (the in-memory
    /// tier keeps the snapshot either way, matching a multi-level FTI
    /// set-up where L1 succeeded and L4 failed), or if the context has no
    /// tier left to commit to.
    ///
    /// # Panics
    /// Panics if a delta is committed while either tier holds no earlier
    /// checkpoint for it to decode against.
    #[allow(clippy::too_many_arguments)]
    pub fn commit_snapshot_from_buffer(
        &mut self,
        completed_at: f64,
        iteration: usize,
        tag: &str,
        scalars: &[(String, f64)],
        delta_order: Option<u8>,
        buffer: &mut CheckpointBuffer,
        _write_seconds: f64,
    ) -> Result<CheckpointMetadata> {
        let original_bytes =
            self.original_bytes_for(buffer.segments().map(|(id, b)| (id, b.len())));
        // Memory first: it writes synchronously and leaves the buffer as it
        // was, so the durable tier may swap it and reads the payload CRCs
        // the memory tier left in it.
        let mut committed = None;
        for tier in [&mut self.memory, &mut self.disk].into_iter().flatten() {
            let result = tier.push_from_buffer(
                iteration,
                completed_at,
                self.level,
                original_bytes,
                delta_order,
                tag,
                scalars,
                buffer,
            );
            committed.get_or_insert(result?);
        }
        let metadata =
            committed.ok_or_else(|| CkptError::Io("no checkpoint tier to commit to".into()))?;
        Ok(self.scale_metadata(metadata))
    }

    /// Paper-scale original size of a variable set: registered sizes where
    /// known, scaled encoded sizes otherwise.
    fn original_bytes_for<'a>(&self, vars: impl Iterator<Item = (&'a str, usize)>) -> usize {
        vars.map(|(id, encoded_len)| {
            self.protected
                .iter()
                .find(|v| v.id == id)
                .map(|v| v.original_bytes)
                .unwrap_or_else(|| (encoded_len as f64 * self.byte_scale) as usize)
        })
        .sum()
    }

    /// Reports billed (paper-scale) sizes in the metadata so Table 3 and
    /// the checkpoint-time figures see the scaled numbers.
    fn scale_metadata(&self, mut metadata: CheckpointMetadata) -> CheckpointMetadata {
        metadata.total_bytes = (metadata.total_bytes as f64 * self.byte_scale) as usize;
        metadata
            .variable_bytes
            .iter_mut()
            .for_each(|(_, b)| *b = (*b as f64 * self.byte_scale) as usize);
        metadata
    }

    /// Recovers the latest checkpoint (the paper's `Snapshot()` in restore
    /// mode): advances the clock by the modelled read time — including the
    /// time to re-read the static variables `static_bytes` (matrix,
    /// preconditioner, right-hand side), which the paper notes makes
    /// recovery slower than checkpointing — and returns the payloads.
    ///
    /// The first tier, durable before in-memory, that yields a valid chain
    /// serves the read: any in-flight write-behind job is joined first,
    /// then the newest checkpoint whose whole dependency chain validates
    /// (metadata *and* payload CRCs of every link) is returned together
    /// with its scalars and strategy tag — a chain with a partially written
    /// or bit-flipped member is skipped entirely, falling back to the
    /// newest older complete chain.  If the durable tier holds no valid
    /// checkpoint at all, the in-memory tier (which survives in-process
    /// failures even when the disk does not) is asked the same question —
    /// multi-level FTI semantics: L1 can recover an in-process failure even
    /// though L4 was lost.
    ///
    /// The read time covers *every* chain link: recovering a delta
    /// checkpoint re-reads its base checkpoints back to the nearest
    /// anchor, which is exactly the restart-cost asymmetry the temporal
    /// encoding trades against its smaller writes.
    ///
    /// # Errors
    /// Returns [`CkptError::NoCheckpoint`] if no (valid) checkpoint
    /// is available.
    pub fn recover(
        &mut self,
        clock: &mut SimClock,
        static_bytes: usize,
    ) -> Result<RecoveredData> {
        let (durable, links) = [(true, &mut self.disk), (false, &mut self.memory)]
            .into_iter()
            .find_map(|(durable, tier)| Some((durable, tier.as_mut()?.latest_valid_chain().ok()?)))
            .ok_or(CkptError::NoCheckpoint)?;
        let total_bytes = links.iter().map(|c| c.metadata.total_bytes).sum::<usize>();
        let last = links.last().expect("a recovered chain is never empty");
        let (iteration, id) = (last.metadata.iteration, last.metadata.id);
        let (scalars, tag) = (last.scalars.clone(), last.tag.clone());
        let chain = links.into_iter().map(|c| c.payloads).collect();
        let billed_bytes = (total_bytes as f64 * self.byte_scale) as usize + static_bytes;
        let read_seconds = self.pfs.read_seconds(billed_bytes, self.cluster.ranks);
        clock.advance(read_seconds);
        Ok(RecoveredData {
            chain,
            iteration,
            scalars,
            tag,
            id,
            durable,
            read_seconds,
        })
    }

    /// Marks the checkpoint `recovered` was read from — and with it every
    /// delta chained on it — as never to be served again, in the tier that
    /// served it: its bytes validated but did not decode.
    pub fn invalidate(&mut self, recovered: &RecoveredData) {
        let tier = if recovered.durable { &mut self.disk } else { &mut self.memory };
        if let Some(store) = tier {
            store.invalidate(recovered.id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bills the write and commits in one step (no mid-write failure
    /// window).
    fn snapshot_from_buffer(
        fti: &mut FtiContext,
        clock: &mut SimClock,
        iteration: usize,
        buffer: &mut CheckpointBuffer,
    ) -> (CheckpointMetadata, f64) {
        let write_seconds = fti.planned_write_seconds(buffer.total_bytes());
        clock.advance(write_seconds);
        let metadata = fti
            .commit_snapshot_from_buffer(clock.now(), iteration, "", &[], None, buffer, write_seconds)
            .expect("durable tier rejected the snapshot");
        (metadata, write_seconds)
    }

    /// [`snapshot_from_buffer`] of one variable `id` holding `payload`.
    fn snapshot(
        fti: &mut FtiContext,
        clock: &mut SimClock,
        iteration: usize,
        id: &str,
        payload: &[u8],
    ) -> (CheckpointMetadata, f64) {
        let mut buffer = CheckpointBuffer::new();
        buffer.push_with(id, |bytes| bytes.extend_from_slice(payload));
        snapshot_from_buffer(fti, clock, iteration, &mut buffer)
    }

    fn context(ranks: usize) -> FtiContext {
        FtiContext::new(
            ClusterConfig::bebop_like(ranks, 1.0),
            PfsModel::bebop_like(),
            CheckpointLevel::Pfs,
        )
    }

    #[test]
    fn protect_registers_and_updates() {
        let mut fti = context(64);
        fti.protect("x", 800);
        fti.protect("p", 800);
        fti.protect("x", 1600);
        assert_eq!(fti.protected.len(), 2);
        assert_eq!(fti.protected[0].original_bytes, 1600);
    }

    #[test]
    fn snapshot_advances_clock_and_stores() {
        let mut fti = context(2048);
        let mut clock = SimClock::new();
        fti.protect("x", 78_800_000_000);
        let (meta, secs) = snapshot(&mut fti, &mut clock, 5, "x", &vec![0u8; 1_000_000]);
        assert!(secs > 0.0);
        assert_eq!(clock.now(), secs);
        assert_eq!(meta.iteration, 5);
        assert_eq!(meta.original_bytes, 78_800_000_000);
        assert_eq!(meta.total_bytes, 1_000_000);
        assert!(meta.compression_ratio() > 1000.0);
        assert_eq!(fti.memory.as_ref().unwrap().len(), 1);
    }

    #[test]
    fn smaller_payloads_cost_less_time() {
        let mut fti = context(2048);
        let mut clock = SimClock::new();
        let (_, t_big) = snapshot(&mut fti, &mut clock, 0, "x", &vec![0u8; 80_000_000]);
        let (_, t_small) = snapshot(&mut fti, &mut clock, 1, "x", &vec![0u8; 4_000_000]);
        assert!(t_small < t_big);
    }

    #[test]
    fn recover_returns_latest_and_charges_static_bytes() {
        let mut fti = context(1024);
        let mut clock = SimClock::new();
        assert!(fti.recover(&mut clock, 0).is_err());

        snapshot(&mut fti, &mut clock, 3, "x", &[1u8; 1000]);
        snapshot(&mut fti, &mut clock, 6, "x", &[2u8; 1000]);
        let before = clock.now();
        let rec = fti.recover(&mut clock, 500_000_000).unwrap();
        assert_eq!(rec.iteration, 6);
        assert_eq!(rec.chain.len(), 1, "anchor recovers as a single link");
        assert_eq!(rec.payloads()[0].1[0], 2);
        assert!(rec.read_seconds > 0.0);
        assert_eq!(clock.now(), before + rec.read_seconds);

        // Recovering with larger static data takes longer.
        let mut fti2 = context(1024);
        let mut clock2 = SimClock::new();
        snapshot(&mut fti2, &mut clock2, 3, "x", &[1u8; 1000]);
        let rec_small = fti2.recover(&mut clock2, 0).unwrap();
        assert!(rec.read_seconds > rec_small.read_seconds);
    }

    #[test]
    fn the_memory_tier_keeps_scalars_and_tag_and_invalidates_like_the_durable_one() {
        let mut fti = context(64);
        let mut clock = SimClock::new();
        let mut buf = CheckpointBuffer::new();
        for (iteration, fill) in [(3, 1u8), (6, 2)] {
            buf.clear();
            buf.push_with("x", |bytes| bytes.extend_from_slice(&[fill; 32]));
            let scalars = [("rho".to_string(), f64::from(fill))];
            let tag = "traditional";
            fti.commit_snapshot_from_buffer(0.0, iteration, tag, &scalars, None, &mut buf, 0.0)
                .unwrap();
        }
        let newest = fti.recover(&mut clock, 0).unwrap();
        assert_eq!((newest.iteration, newest.id, newest.durable), (6, 1, false));
        assert_eq!(newest.tag, "traditional");
        assert_eq!(newest.scalars, vec![("rho".to_string(), 2.0)]);

        // Undecodable, says the caller: the next-older one is served.
        fti.invalidate(&newest);
        let older = fti.recover(&mut clock, 0).unwrap();
        assert_eq!((older.iteration, older.id), (3, 0));
        assert_eq!(older.scalars, vec![("rho".to_string(), 1.0)]);
        fti.invalidate(&older);
        assert_eq!(fti.recover(&mut clock, 0).unwrap_err(), CkptError::NoCheckpoint);
    }

    #[test]
    fn snapshot_bills_at_the_byte_scale_and_leaves_the_buffer_reusable() {
        let mut fti = context(2048);
        fti.set_byte_scale(1000.0);
        fti.protect("x", 78_800);
        let mut clock = SimClock::new();

        let mut buf = CheckpointBuffer::new();
        buf.push_with("x", |bytes| bytes.extend_from_slice(&[9u8; 1000]));
        buf.push_with("y", |bytes| bytes.extend_from_slice(&[7u8; 50]));
        let (meta, secs) = snapshot_from_buffer(&mut fti, &mut clock, 5, &mut buf);
        // Registered variables report their registered size, unregistered
        // ones their scaled encoded size; stored sizes are scaled too.
        assert_eq!(meta.original_bytes, 78_800 + 50_000);
        assert_eq!(meta.total_bytes, 1_050_000);
        assert_eq!(secs, fti.planned_write_seconds(1050));
        assert_eq!(clock.now(), secs);
        assert_eq!(
            fti.memory.as_mut().unwrap().latest_valid().unwrap().payloads,
            vec![
                ("x".to_string(), vec![9u8; 1000]),
                ("y".to_string(), vec![7u8; 50]),
            ]
        );

        // The buffer is reusable after the snapshot.
        buf.clear();
        buf.push_with("x", |bytes| bytes.extend_from_slice(&[1u8; 10]));
        let (meta2, _) = snapshot_from_buffer(&mut fti, &mut clock, 6, &mut buf);
        assert_eq!(meta2.iteration, 6);
        assert_eq!(fti.memory.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn without_memory_tier_every_snapshot_lives_on_disk_alone() {
        use crate::disk::DiskStore;

        let dir = std::env::temp_dir().join(format!("lcr-fti-durable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut clock = SimClock::new();

        // No tier at all: committing is a typed error, recovering finds nothing.
        let mut bare = context(64).without_memory_tier();
        assert!(bare.memory.is_none());
        let mut buf = CheckpointBuffer::new();
        buf.push_with("x", |bytes| bytes.extend_from_slice(&[5u8; 64]));
        assert!(matches!(
            bare.commit_snapshot_from_buffer(0.0, 1, "t", &[], None, &mut buf, 0.0),
            Err(CkptError::Io(_))
        ));
        assert_eq!(bare.recover(&mut clock, 0).unwrap_err(), CkptError::NoCheckpoint);

        let mut fti = context(64).without_memory_tier();
        fti.attach_disk_store(DiskStore::open(&dir, 2).unwrap());
        let meta = fti
            .commit_snapshot_from_buffer(0.0, 4, "t", &[], None, &mut buf, 0.0)
            .unwrap();
        assert_eq!((meta.iteration, meta.total_bytes), (4, 64));
        let rec = fti.recover(&mut clock, 0).unwrap();
        assert_eq!((rec.id, rec.durable), (meta.id, true));
        assert_eq!(rec.payloads().to_vec(), vec![("x".to_string(), vec![5u8; 64])]);

        // Discarding the only durable checkpoint leaves nothing to fall back to.
        fti.disk_store_mut().unwrap().discard_newest();
        assert_eq!(fti.recover(&mut clock, 0).unwrap_err(), CkptError::NoCheckpoint);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn planned_write_seconds_matches_billed_write() {
        let mut fti = context(2048);
        fti.set_byte_scale(500.0);
        let planned = fti.planned_write_seconds(1_000_000);
        let mut clock = SimClock::new();
        let mut buf = CheckpointBuffer::new();
        buf.push_with("x", |bytes| bytes.extend_from_slice(&vec![0u8; 1_000_000]));
        let (_, secs) = snapshot_from_buffer(&mut fti, &mut clock, 0, &mut buf);
        assert_eq!(planned, secs);
        assert_eq!(clock.now(), planned);
    }

    #[test]
    fn disk_tier_mirrors_snapshots_and_recovers_with_scalars() {
        use crate::disk::DiskStore;
        let dir = std::env::temp_dir().join(format!("lcr-fti-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let mut fti = context(64);
        fti.attach_disk_store(DiskStore::open(&dir, 2).unwrap());
        assert!(fti.disk_store().unwrap().is_empty());
        let mut clock = SimClock::new();
        let mut buf = CheckpointBuffer::new();
        buf.push_with("x", |bytes| bytes.extend_from_slice(&[5u8; 128]));
        let write_seconds = fti.planned_write_seconds(buf.total_bytes());
        clock.advance(write_seconds);
        fti.commit_snapshot_from_buffer(
            clock.now(),
            9,
            "traditional",
            &[("rho".to_string(), 1.5)],
            None,
            &mut buf,
            write_seconds,
        )
        .unwrap();
        assert_eq!(fti.disk_store().unwrap().len(), 1);

        let rec = fti.recover(&mut clock, 0).unwrap();
        assert_eq!(rec.iteration, 9);
        assert_eq!(rec.tag, "traditional");
        assert_eq!(rec.scalars, vec![("rho".to_string(), 1.5)]);
        assert_eq!(rec.payloads().to_vec(), vec![("x".to_string(), vec![5u8; 128])]);

        // A fresh context over the same directory sees the durable copy.
        let mut fresh = context(64);
        fresh.attach_disk_store(DiskStore::open(&dir, 2).unwrap());
        let mut clock2 = SimClock::new();
        let rec2 = fresh.recover(&mut clock2, 0).unwrap();
        assert_eq!(rec2.chain, rec.chain);
        assert_eq!(rec2.scalars, rec.scalars);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_snapshot_recovers_the_whole_chain_and_bills_every_link() {
        let mut fti = context(2048);
        fti.protect("x", 1_000_000);
        let mut clock = SimClock::new();
        let mut buf = CheckpointBuffer::new();

        let commit = |fti: &mut FtiContext,
                          clock: &mut SimClock,
                          buf: &mut CheckpointBuffer,
                          iteration: usize,
                          fill: u8,
                          len: usize,
                          delta: Option<u8>| {
            buf.clear();
            buf.push_with("x", |out| out.extend_from_slice(&vec![fill; len]));
            let secs = fti.planned_write_seconds(buf.total_bytes());
            clock.advance(secs);
            fti.commit_snapshot_from_buffer(clock.now(), iteration, "", &[], delta, buf, secs)
                .unwrap();
        };
        commit(&mut fti, &mut clock, &mut buf, 0, 1, 1000, None);
        commit(&mut fti, &mut clock, &mut buf, 5, 2, 200, Some(1));
        commit(&mut fti, &mut clock, &mut buf, 10, 3, 200, Some(1));

        let rec = fti.recover(&mut clock, 0).unwrap();
        assert_eq!(rec.iteration, 10);
        assert_eq!(rec.chain.len(), 3, "delta recovery replays from the anchor");
        assert_eq!(rec.chain[0][0].1, vec![1u8; 1000]);
        assert_eq!(rec.payloads()[0].1, vec![3u8; 200]);

        // Reading the chain costs what reading all three links costs — more
        // than the newest link alone would.
        let chain_bytes = 1000 + 200 + 200;
        let expected = fti.pfs().read_seconds(chain_bytes, 2048);
        assert_eq!(rec.read_seconds, expected);
    }

    #[test]
    fn a_reused_buffer_is_checksummed_afresh_for_every_commit() {
        use crate::disk::{read_checkpoint_file, DiskStore};

        for write_behind in [false, true] {
            let dir = std::env::temp_dir()
                .join(format!("lcr-fti-crc-{write_behind}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let mut disk = DiskStore::open(&dir, 2).unwrap();
            disk.set_write_behind(write_behind).unwrap();
            let mut fti = context(64);
            fti.attach_disk_store(disk);
            // Equal lengths, different bytes: a CRC the buffer kept from
            // the first commit would be wrong for the second.
            let mut buf = CheckpointBuffer::new();
            for fill in [1u8, 2] {
                buf.clear();
                buf.push_with("x", |bytes| bytes.extend_from_slice(&[fill; 2048]));
                buf.push_with("p", |bytes| bytes.extend((0..40u8).map(|i| i ^ fill)));
                let iteration = usize::from(fill);
                fti.commit_snapshot_from_buffer(0.0, iteration, "", &[], None, &mut buf, 0.0)
                    .unwrap();
            }
            fti.disk_store_mut().unwrap().flush().unwrap();

            let mut files: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|entry| entry.unwrap().path())
                .collect();
            files.sort();
            assert_eq!(files.len(), 2);
            for (path, fill) in files.iter().zip([1u8, 2]) {
                let ckpt = read_checkpoint_file(path).unwrap();
                assert_eq!(ckpt.payloads[0].1, vec![fill; 2048], "{}", path.display());
            }
            let memory = fti.memory.as_mut().unwrap();
            assert_eq!(memory.latest_valid().unwrap().metadata.iteration, 2);
            memory.invalidate(1);
            assert_eq!(memory.latest_valid().unwrap().metadata.iteration, 1);

            // One byte of the second file's first payload flipped: it fails
            // its CRC, and recovery falls back to the first file.
            let mut bytes = std::fs::read(&files[1]).unwrap();
            let at = bytes.len() - 40 - 1024;
            bytes[at] ^= 0x10;
            std::fs::write(&files[1], &bytes).unwrap();
            assert!(matches!(read_checkpoint_file(&files[1]), Err(CkptError::Corrupt(_))));
            let recovered = fti.recover(&mut SimClock::new(), 0).unwrap();
            assert_eq!((recovered.durable, recovered.iteration), (true, 1));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn unregistered_payload_uses_its_own_size_as_original() {
        let mut fti = context(64);
        let mut clock = SimClock::new();
        let (meta, _) = snapshot(&mut fti, &mut clock, 0, "y", &[0u8; 256]);
        assert_eq!(meta.original_bytes, 256);
        assert_eq!(meta.compression_ratio(), 1.0);
    }
}
