//! Checkpoint encoding strategies: traditional, lossless and lossy.
//!
//! A strategy decides (a) *which* dynamic variables are saved, (b) *how*
//! their bytes are encoded, and (c) *how* the solver is brought back to
//! life from those bytes:
//!
//! | scheme       | saved variables            | codec                        | recovery |
//! |--------------|----------------------------|------------------------------|----------|
//! | traditional  | all dynamic vars (Alg. 1)  | raw IEEE-754, unframed       | exact [`RecoveryMode::Exact`] |
//! | lossless     | all dynamic vars           | FPC + LZSS                   | exact |
//! | lossy        | only `x` (+ counter)       | SZ (or ZFP), error-bounded   | restart from `x` (Alg. 2), [`RecoveryMode::Restart`] |
//!
//! (a) and (c) follow the [`RecoveryMode`]; (b) is one private function
//! from strategy to [`Codec`], the only place a concrete codec is named.
//! Encoding and decoding are then one loop over the saved variables each:
//! an 8-byte element-count frame (raw payloads are their own length) and
//! the codec's stream.
//!
//! The lossy strategy's error bound follows the paper's per-method policy
//! ([`ErrorBoundPolicy`]): a fixed point-wise relative bound (10⁻⁴ by
//! default) for the stationary methods and CG, and the adaptive
//! `‖r‖/‖b‖` bound of Theorem 3 for GMRES.

use lcr_ckpt::CheckpointBuffer;
use lcr_compress::{Codec, DeltaMode, ErrorBound};
use lcr_perfmodel::theorem3_gmres_error_bound;
use lcr_solvers::{DynamicState, IterativeMethod};
use lcr_sparse::Vector;

/// How the error bound for a lossy checkpoint is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorBoundPolicy {
    /// A fixed bound used for every checkpoint (the paper's 10⁻⁴ relative
    /// bound for Jacobi and CG).
    Fixed(ErrorBound),
    /// Theorem 3's adaptive bound for GMRES: the point-wise relative bound
    /// is `‖r‖/‖b‖`, clamped to `[1e-12, 1e-2]`.
    AdaptiveGmres,
}

/// Multiplier on the relative residual in [`ErrorBoundPolicy::AdaptiveGmres`].
const GMRES_SAFETY: f64 = 1.0;
/// Smallest bound [`ErrorBoundPolicy::AdaptiveGmres`] emits.
const GMRES_MIN_BOUND: f64 = 1e-12;
/// Largest bound [`ErrorBoundPolicy::AdaptiveGmres`] emits.
const GMRES_MAX_BOUND: f64 = 1e-2;

impl ErrorBoundPolicy {
    /// The paper's default for stationary methods and CG.
    fn fixed_relative(eb: f64) -> Self {
        ErrorBoundPolicy::Fixed(ErrorBound::PointwiseRel(eb))
    }

    /// Resolves the bound for the current solver state.
    pub fn resolve(&self, solver: &dyn IterativeMethod) -> ErrorBound {
        self.at(solver.residual_norm(), solver.reference_norm())
    }

    /// The bound for a checkpoint taken when the residual and reference
    /// norms stand at these values.
    fn at(&self, residual_norm: f64, reference_norm: f64) -> ErrorBound {
        match *self {
            ErrorBoundPolicy::Fixed(bound) => bound,
            ErrorBoundPolicy::AdaptiveGmres => ErrorBound::PointwiseRel(theorem3_gmres_error_bound(
                residual_norm,
                reference_norm,
                GMRES_SAFETY,
                GMRES_MIN_BOUND,
                GMRES_MAX_BOUND,
            )),
        }
    }
}

/// Which lossy compressor backs the lossy strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossyCodecKind {
    /// The SZ-style prediction-based compressor (the paper's choice for 1-D
    /// checkpoint vectors).
    Sz,
    /// The ZFP-style transform-based compressor (ablation).
    Zfp,
}

/// How a strategy restores a solver from recovered payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Exact restore of every dynamic variable (Algorithm 1 lines 7–8).
    Exact,
    /// Restart from the (possibly distorted) solution vector only
    /// (Algorithm 2 lines 8–13).
    Restart,
}

/// A checkpoint strategy: variable selection + encoding + recovery.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointStrategy {
    /// No checkpointing at all (failure-free baseline, or "restart from
    /// scratch" under failures).
    None,
    /// The paper's traditional checkpointing: raw dynamic variables.
    Traditional,
    /// Lossless-compressed checkpointing (the Gzip baseline: FPC followed
    /// by LZSS).
    Lossless,
    /// The paper's lossy checkpointing scheme.
    Lossy {
        /// Which lossy codec to use.
        codec: LossyCodecKind,
        /// How the error bound is chosen per checkpoint.
        policy: ErrorBoundPolicy,
    },
}

/// The encoded form of one checkpoint, ready to hand to the FTI layer.
#[derive(Debug, Clone)]
// lcr-analyze: allow(dead-public-item): return type of `CheckpointStrategy::encode`; callers take it by inference
pub struct EncodedCheckpoint {
    /// Encoded payload per variable (name, bytes).
    pub payloads: Vec<(String, Vec<u8>)>,
    /// Uncompressed size of the vector payload in bytes.
    pub original_bytes: usize,
    /// The iteration the state was captured at.
    pub iteration: usize,
    /// Scalars captured alongside (stored in the metadata payload).
    pub scalars: Vec<(String, f64)>,
}

impl EncodedCheckpoint {
    /// Total encoded bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.payloads.iter().map(|(_, b)| b.len()).sum()
    }
}

/// Metadata of a checkpoint whose payloads were encoded directly into a
/// [`CheckpointBuffer`] (the zero-copy counterpart of
/// [`EncodedCheckpoint`]; the bytes live in the buffer).
#[derive(Debug, Clone)]
// lcr-analyze: allow(dead-public-item): return type of `CheckpointStrategy::encode_temporal_into`; callers take it by inference
pub struct EncodedCheckpointMeta {
    /// Uncompressed size of the vector payload in bytes.
    pub original_bytes: usize,
    /// The iteration the state was captured at.
    pub iteration: usize,
    /// Scalars captured alongside (stored in the metadata payload).
    pub scalars: Vec<(String, f64)>,
}

/// Errors from encoding/decoding checkpoints.
#[derive(Debug, Clone, PartialEq)]
// lcr-analyze: allow(dead-public-item): error type of every `CheckpointStrategy` method; callers only unwrap or print it
pub enum StrategyError {
    /// The underlying compressor failed.
    Compression(String),
    /// A payload required for recovery is missing or malformed.
    Malformed(String),
}

impl std::fmt::Display for StrategyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StrategyError::Compression(msg) => write!(f, "compression error: {msg}"),
            StrategyError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for StrategyError {}

impl CheckpointStrategy {
    /// The paper's default lossy strategy for stationary methods and CG
    /// (SZ, fixed 10⁻⁴ point-wise relative bound).
    pub fn lossy_default() -> Self {
        CheckpointStrategy::Lossy {
            codec: LossyCodecKind::Sz,
            policy: ErrorBoundPolicy::fixed_relative(1e-4),
        }
    }

    /// The paper's lossy strategy for GMRES (SZ, Theorem-3 adaptive bound).
    pub fn lossy_gmres() -> Self {
        CheckpointStrategy::Lossy {
            codec: LossyCodecKind::Sz,
            policy: ErrorBoundPolicy::AdaptiveGmres,
        }
    }

    /// The lossless baseline.
    pub fn lossless_default() -> Self {
        CheckpointStrategy::Lossless
    }

    /// Short name used in reports ("none", "traditional", "lossless",
    /// "lossy").
    pub fn name(&self) -> &'static str {
        match self {
            CheckpointStrategy::None => "none",
            CheckpointStrategy::Traditional => "traditional",
            CheckpointStrategy::Lossless => "lossless",
            CheckpointStrategy::Lossy { .. } => "lossy",
        }
    }

    /// Whether this strategy can rebuild a solver from a durable checkpoint
    /// written under `tag` (a [`CheckpointStrategy::name`] recorded in the
    /// on-disk header): payload layouts differ per scheme family, so only a
    /// matching name is decodable.  Codec mismatches *within* a family
    /// (e.g. SZ bytes decoded as ZFP) are caught by the decoder itself and
    /// surface as a [`StrategyError`] from [`CheckpointStrategy::recover`].
    pub fn can_recover_from(&self, tag: &str) -> bool {
        !matches!(self, CheckpointStrategy::None) && tag == self.name()
    }

    /// Whether this strategy saves the full dynamic state (exact recovery)
    /// or only the solution vector (restart recovery).
    pub fn recovery_mode(&self) -> RecoveryMode {
        match self {
            CheckpointStrategy::Lossy { .. } => RecoveryMode::Restart,
            _ => RecoveryMode::Exact,
        }
    }

    /// Which codec: the one behind this strategy's payloads, and whether
    /// they carry the element-count frame in front of its stream (raw
    /// payloads are their own length).  `None` saves nothing.
    fn codec(&self) -> Option<(&'static dyn Codec, bool)> {
        use LossyCodecKind::{Sz, Zfp};
        match self {
            CheckpointStrategy::None => None,
            CheckpointStrategy::Traditional => Some((&lcr_compress::RawCodec, false)),
            CheckpointStrategy::Lossless => Some((&lcr_compress::LosslessPipeline, true)),
            CheckpointStrategy::Lossy { codec: Sz, .. } => Some((&lcr_compress::SzCompressor, true)),
            CheckpointStrategy::Lossy { codec: Zfp, .. } => Some((&lcr_compress::ZfpCompressor, true)),
        }
    }

    /// Encodes the solver's dynamic state into checkpoint payloads, under
    /// the bound its policy resolves for the current residual.
    ///
    /// Allocating convenience wrapper around `encode_state_into`; the
    /// executor's hot path encodes into a reused buffer.
    ///
    /// # Errors
    /// Returns [`StrategyError::Compression`] if a codec fails.
    pub fn encode(&self, solver: &dyn IterativeMethod) -> Result<EncodedCheckpoint, StrategyError> {
        let mut buffer = CheckpointBuffer::new();
        let meta = self.encode_solver_into(solver, &mut buffer)?;
        Ok(EncodedCheckpoint {
            payloads: buffer.to_payloads(),
            original_bytes: meta.original_bytes,
            iteration: meta.iteration,
            scalars: meta.scalars,
        })
    }

    /// Encodes the solver's dynamic state directly into a reusable
    /// [`CheckpointBuffer`]: `encode_state_into` on the solver's captured
    /// state, under the bound its policy resolves for the current residual.
    fn encode_solver_into(
        &self,
        solver: &dyn IterativeMethod,
        buffer: &mut CheckpointBuffer,
    ) -> Result<EncodedCheckpointMeta, StrategyError> {
        let bound = self.bound_at(solver.residual_norm(), solver.reference_norm());
        self.encode_state_into(&solver.capture_state(), bound, buffer)
    }

    /// The reused-buffer encode as `lcr_benchmark` calls it: the delta
    /// order it returns is always `None` (every checkpoint decodes on its
    /// own), and `_selector` is not read.
    ///
    /// # Errors
    /// Returns [`StrategyError::Compression`] if a codec fails.
    pub fn encode_temporal_into(
        &self,
        solver: &dyn IterativeMethod,
        buffer: &mut CheckpointBuffer,
        _selector: &mut TemporalEncodingSelector,
    ) -> Result<(EncodedCheckpointMeta, Option<u8>), StrategyError> {
        Ok((self.encode_solver_into(solver, buffer)?, None))
    }

    /// The error bound for a checkpoint taken when the residual and
    /// reference norms stand at these values.  The exact strategies ignore
    /// the bound they are handed, and get one no codec accepts.
    pub(crate) fn bound_at(&self, residual_norm: f64, reference_norm: f64) -> ErrorBound {
        match self {
            CheckpointStrategy::Lossy { policy, .. } => policy.at(residual_norm, reference_norm),
            _ => ErrorBound::Abs(0.0),
        }
    }

    /// Encodes a captured dynamic state into `buffer` (cleared first) —
    /// the zero-copy checkpoint path: the codec appends to the buffer
    /// arena, so no intermediate per-variable `Vec<u8>` is built or copied.
    ///
    /// * An exact strategy saves every dynamic variable (Algorithm 1
    ///   line 4) and the scalars.
    /// * A restart strategy saves only the solution vector `x`
    ///   (Algorithm 2 lines 4–5), compressed under `bound` — taken from the
    ///   captured state, not the solver's `solution()`, because GMRES folds
    ///   a partial correction into the checkpointed `x`.
    ///
    /// # Errors
    /// Returns [`StrategyError::Compression`] if a codec fails.
    pub(crate) fn encode_state_into(
        &self,
        state: &DynamicState,
        bound: ErrorBound,
        buffer: &mut CheckpointBuffer,
    ) -> Result<EncodedCheckpointMeta, StrategyError> {
        buffer.clear();
        let exact = self.recovery_mode() == RecoveryMode::Exact;
        let mut meta = EncodedCheckpointMeta {
            original_bytes: 0,
            iteration: state.iteration,
            scalars: if exact { state.scalars.clone() } else { Vec::new() },
        };
        let Some((codec, framed)) = self.codec() else {
            return Ok(meta);
        };
        for (name, v) in state.vectors.iter().filter(|(name, _)| exact || name == "x") {
            buffer
                .push_with(name, |out| {
                    if framed {
                        out.extend_from_slice(&(v.len() as u64).to_le_bytes());
                    }
                    codec.encode_into(v.as_slice(), bound, out)
                })
                .map_err(|e| StrategyError::Compression(e.to_string()))?;
            meta.original_bytes += v.len() * std::mem::size_of::<f64>();
        }
        if buffer.is_empty() && !exact {
            return Err(StrategyError::Malformed("dynamic state lacks x".into()));
        }
        Ok(meta)
    }

    /// Splits a payload into its element count — the 8-byte frame
    /// `encode_state_into` wrote, or, unframed, the doubles the bytes hold
    /// — and the codec's stream.
    fn unframe(bytes: &[u8], framed: bool) -> Result<(usize, &[u8]), StrategyError> {
        if !framed {
            return Ok((bytes.len() / 8, bytes));
        }
        let (frame, stream) = bytes
            .split_first_chunk::<8>()
            .ok_or_else(|| StrategyError::Malformed("framed payload too short".into()))?;
        Ok((u64::from_le_bytes(*frame) as usize, stream))
    }

    /// Decodes recovered payloads into the dynamic state they hold and how
    /// a solver is to be brought back from it: every saved variable and the
    /// scalars for an exact restore (Algorithm 1 lines 7–8), the solution
    /// vector alone for a restart (Algorithm 2 lines 8–13).  The caller
    /// applies it, because only the caller knows whether its solver can
    /// fail doing so.
    ///
    /// # Errors
    /// Returns [`StrategyError`] if a payload is missing or undecodable.
    pub(crate) fn decode(
        &self,
        payloads: &[(String, Vec<u8>)],
        iteration: usize,
        scalars: &[(String, f64)],
    ) -> Result<(DynamicState, RecoveryMode), StrategyError> {
        let Some((codec, framed)) = self.codec() else {
            return Err(StrategyError::Malformed(
                "the no-checkpoint strategy cannot recover".into(),
            ));
        };
        let exact = self.recovery_mode() == RecoveryMode::Exact;
        let mut vectors = Vec::new();
        for (name, bytes) in payloads.iter().filter(|(name, _)| exact || name == "x") {
            let (n_elements, stream) = Self::unframe(bytes, framed)?;
            let values = codec
                .decode(stream, n_elements)
                .map_err(|e| StrategyError::Compression(e.to_string()))?;
            vectors.push((name.clone(), Vector::from_vec(values)));
        }
        if vectors.is_empty() && !exact {
            return Err(StrategyError::Malformed("lossy checkpoint lacks x".into()));
        }
        let state = DynamicState {
            iteration,
            scalars: scalars.to_vec(),
            vectors,
        };
        Ok((state, self.recovery_mode()))
    }

    /// Decodes recovered payloads and applies them to the solver:
    /// exact-restore for traditional/lossless, restart-from-`x` for lossy
    /// (the recovery sides of Algorithms 1 and 2).
    ///
    /// # Errors
    /// Returns [`StrategyError`] if payloads are missing or undecodable.
    pub fn recover(
        &self,
        solver: &mut dyn IterativeMethod,
        payloads: &[(String, Vec<u8>)],
        iteration: usize,
        scalars: &[(String, f64)],
    ) -> Result<(), StrategyError> {
        let (state, mode) = self.decode(payloads, iteration, scalars)?;
        apply_recovered(solver, state, mode);
        Ok(())
    }

    /// [`CheckpointStrategy::recover`] as `lcr_benchmark` calls it, on a
    /// chain of exactly one link: every checkpoint decodes on its own.
    ///
    /// # Errors
    /// As [`CheckpointStrategy::recover`]; a chain of any other length is
    /// [`StrategyError::Malformed`].
    pub fn recover_chain(
        &self,
        solver: &mut dyn IterativeMethod,
        chain: &[Vec<(String, Vec<u8>)>],
        iteration: usize,
        scalars: &[(String, f64)],
    ) -> Result<(), StrategyError> {
        match chain {
            [payloads] => self.recover(solver, payloads, iteration, scalars),
            _ => Err(StrategyError::Malformed(format!(
                "a checkpoint is one link, not {}",
                chain.len()
            ))),
        }
    }
}

/// What `lcr_benchmark` hands [`CheckpointStrategy::encode_temporal_into`]:
/// it holds nothing and is read by nothing, because every checkpoint
/// decodes on its own.
#[derive(Debug, Clone, Default)]
pub struct TemporalEncodingSelector;

impl TemporalEncodingSelector {
    /// Takes the anchor interval and delta order the benchmark passes, and
    /// reads neither.
    pub fn new(_anchor_interval: usize, _max_order: DeltaMode) -> Self {
        Self
    }

    /// Does nothing: there is no encoder state to drop.
    pub fn reset(&mut self) {}
}

/// Brings an infallible solver back from a decoded checkpoint: every
/// dynamic variable restored exactly, or a restart from the (possibly
/// distorted) `x` at the checkpoint's iteration.
pub(crate) fn apply_recovered(
    solver: &mut dyn IterativeMethod,
    state: DynamicState,
    mode: RecoveryMode,
) {
    match mode {
        RecoveryMode::Exact => solver.restore_state(&state),
        RecoveryMode::Restart => {
            let x = state.vectors.into_iter().find(|(name, _)| name == "x");
            let (_, x) = x.expect("a restart recovery decodes x");
            solver.restart_from_solution(x, state.iteration);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lcr_solvers::{
        ConjugateGradient, Gmres, IterativeMethod, Jacobi, LinearSystem, StoppingCriteria,
    };
    use lcr_sparse::poisson::{manufactured_rhs, poisson2d};
    use lcr_sparse::Vector;

    fn spd_system(n: usize) -> LinearSystem {
        let a = poisson2d(n).negated();
        let (_, b) = manufactured_rhs(&a);
        LinearSystem::new(a, b)
    }

    fn plain_system(n: usize) -> LinearSystem {
        let a = poisson2d(n);
        let (_, b) = manufactured_rhs(&a);
        LinearSystem::new(a, b)
    }

    #[test]
    fn names_and_recovery_modes() {
        assert_eq!(CheckpointStrategy::None.name(), "none");
        assert_eq!(CheckpointStrategy::Traditional.name(), "traditional");
        assert_eq!(CheckpointStrategy::lossless_default().name(), "lossless");
        assert_eq!(CheckpointStrategy::lossy_default().name(), "lossy");
        assert!(CheckpointStrategy::Traditional.can_recover_from("traditional"));
        assert!(!CheckpointStrategy::Traditional.can_recover_from("lossy"));
        assert!(CheckpointStrategy::lossy_gmres().can_recover_from("lossy"));
        // The no-checkpoint strategy can never recover, even from its own tag.
        assert!(!CheckpointStrategy::None.can_recover_from("none"));
        assert_eq!(
            CheckpointStrategy::Traditional.recovery_mode(),
            RecoveryMode::Exact
        );
        assert_eq!(
            CheckpointStrategy::lossy_default().recovery_mode(),
            RecoveryMode::Restart
        );
    }

    #[test]
    fn traditional_encoding_saves_all_vectors_raw() {
        let sys = spd_system(8);
        let n = sys.dim();
        let mut cg = ConjugateGradient::unpreconditioned(
            sys,
            Vector::zeros(n),
            StoppingCriteria::new(1e-10, 1000),
        );
        for _ in 0..5 {
            cg.step();
        }
        let enc = CheckpointStrategy::Traditional.encode(&cg).unwrap();
        // CG checkpoints x and p; raw encoding is 8 bytes per element.
        assert_eq!(enc.payloads.len(), 2);
        assert_eq!(enc.encoded_bytes(), 2 * n * 8);
        assert_eq!(enc.original_bytes, 2 * n * 8);
        assert_eq!(enc.iteration, 5);
        assert!(enc.scalars.iter().any(|(name, _)| name == "rho"));
    }

    #[test]
    fn encoding_into_a_reused_buffer_matches_encode_for_every_strategy() {
        let sys = spd_system(8);
        let n = sys.dim();
        let mut cg = ConjugateGradient::unpreconditioned(
            sys,
            Vector::zeros(n),
            StoppingCriteria::new(1e-10, 1000),
        );
        for _ in 0..5 {
            cg.step();
        }
        let mut buffer = CheckpointBuffer::new();
        for strategy in [
            CheckpointStrategy::None,
            CheckpointStrategy::Traditional,
            CheckpointStrategy::lossless_default(),
            CheckpointStrategy::lossy_default(),
        ] {
            let enc = strategy.encode(&cg).unwrap();
            // The buffer is reused (not recreated) across strategies, as
            // the runner reuses it across checkpoints.
            let meta = strategy.encode_solver_into(&cg, &mut buffer).unwrap();
            assert_eq!(meta.original_bytes, enc.original_bytes);
            assert_eq!(meta.iteration, enc.iteration);
            assert_eq!(meta.scalars, enc.scalars);
            assert_eq!(buffer.to_payloads(), enc.payloads, "{}", strategy.name());
        }
    }

    #[test]
    fn traditional_roundtrip_is_exact() {
        let sys = spd_system(8);
        let n = sys.dim();
        let mut cg = ConjugateGradient::unpreconditioned(
            sys.clone(),
            Vector::zeros(n),
            StoppingCriteria::new(1e-12, 1000),
        );
        for _ in 0..7 {
            cg.step();
        }
        let enc = CheckpointStrategy::Traditional.encode(&cg).unwrap();
        let reference_next: Vec<f64> = {
            let mut probe = ConjugateGradient::unpreconditioned(
                sys.clone(),
                Vector::zeros(n),
                StoppingCriteria::new(1e-12, 1000),
            );
            CheckpointStrategy::Traditional
                .recover(&mut probe, &enc.payloads, enc.iteration, &enc.scalars)
                .unwrap();
            (0..3)
                .map(|_| {
                    probe.step();
                    probe.residual_norm()
                })
                .collect()
        };
        // The original continues identically.
        let original_next: Vec<f64> = (0..3)
            .map(|_| {
                cg.step();
                cg.residual_norm()
            })
            .collect();
        for (a, b) in original_next.iter().zip(reference_next.iter()) {
            assert!((a - b).abs() <= 1e-12 * a.max(1.0));
        }
    }

    #[test]
    fn lossless_roundtrip_is_exact_and_smaller() {
        let sys = plain_system(12);
        let n = sys.dim();
        let mut jacobi = Jacobi::new(sys.clone(), Vector::zeros(n), StoppingCriteria::new(1e-10, 10_000));
        for _ in 0..50 {
            jacobi.step();
        }
        let strategy = CheckpointStrategy::lossless_default();
        let enc = strategy.encode(&jacobi).unwrap();
        assert!(enc.encoded_bytes() > 0);

        let mut restored =
            Jacobi::new(sys, Vector::zeros(n), StoppingCriteria::new(1e-10, 10_000));
        strategy
            .recover(&mut restored, &enc.payloads, enc.iteration, &enc.scalars)
            .unwrap();
        assert_eq!(restored.iteration(), 50);
        assert!(restored.solution().max_abs_diff(jacobi.solution()) == 0.0);
    }

    #[test]
    fn lossy_encoding_only_saves_x_and_respects_bound() {
        let sys = spd_system(10);
        let n = sys.dim();
        let mut cg = ConjugateGradient::unpreconditioned(
            sys.clone(),
            Vector::zeros(n),
            StoppingCriteria::new(1e-10, 1000),
        );
        for _ in 0..20 {
            cg.step();
        }
        let strategy = CheckpointStrategy::lossy_default();
        let enc = strategy.encode(&cg).unwrap();
        assert_eq!(enc.payloads.len(), 1);
        assert_eq!(enc.original_bytes, n * 8);

        let x_before = cg.solution().clone();
        let mut restored = ConjugateGradient::unpreconditioned(
            sys,
            Vector::zeros(n),
            StoppingCriteria::new(1e-10, 1000),
        );
        strategy
            .recover(&mut restored, &enc.payloads, enc.iteration, &[])
            .unwrap();
        assert_eq!(restored.iteration(), 20);
        // Point-wise relative bound of 1e-4.
        for (a, b) in x_before.iter().zip(restored.solution().iter()) {
            assert!((a - b).abs() <= 1e-4 * a.abs() * (1.0 + 1e-9) + 1e-300);
        }
        // Restart recovery recorded in the history.
        assert_eq!(restored.history().restarts(), &[20]);
    }

    #[test]
    fn lossy_compresses_much_better_than_lossless_on_smooth_solution() {
        // Run Jacobi long enough that x approximates the smooth solution;
        // that is the regime where the paper's 20–60x ratios come from.
        let sys = plain_system(24);
        let n = sys.dim();
        let mut jacobi = Jacobi::new(sys, Vector::zeros(n), StoppingCriteria::new(1e-8, 50_000));
        jacobi.run_to_convergence();

        let lossy = CheckpointStrategy::lossy_default().encode(&jacobi).unwrap();
        let lossless = CheckpointStrategy::lossless_default()
            .encode(&jacobi)
            .unwrap();
        let trad = CheckpointStrategy::Traditional.encode(&jacobi).unwrap();
        assert!(
            lossy.encoded_bytes() * 2 < lossless.encoded_bytes(),
            "lossy {} vs lossless {}",
            lossy.encoded_bytes(),
            lossless.encoded_bytes()
        );
        assert!(
            lossy.encoded_bytes() * 4 < trad.encoded_bytes(),
            "lossy {} vs traditional {}",
            lossy.encoded_bytes(),
            trad.encoded_bytes()
        );
        assert!(lossless.encoded_bytes() <= trad.encoded_bytes());
    }

    #[test]
    fn adaptive_gmres_policy_tracks_residual() {
        let sys = plain_system(10);
        let n = sys.dim();
        let mut g = Gmres::unpreconditioned(
            sys,
            Vector::zeros(n),
            30,
            StoppingCriteria::new(1e-10, 10_000),
        );
        let policy = ErrorBoundPolicy::AdaptiveGmres;
        let early = policy.resolve(&g);
        for _ in 0..40 {
            g.step();
        }
        let late = policy.resolve(&g);
        let (ErrorBound::PointwiseRel(e1), ErrorBound::PointwiseRel(e2)) = (early, late) else {
            panic!("adaptive policy must produce point-wise relative bounds");
        };
        assert!(e2 < e1, "bound should tighten as the residual drops");
    }

    #[test]
    fn zfp_backed_lossy_strategy_roundtrips() {
        let sys = spd_system(8);
        let n = sys.dim();
        let mut cg = ConjugateGradient::unpreconditioned(
            sys.clone(),
            Vector::zeros(n),
            StoppingCriteria::new(1e-10, 1000),
        );
        for _ in 0..10 {
            cg.step();
        }
        let strategy = CheckpointStrategy::Lossy {
            codec: LossyCodecKind::Zfp,
            policy: ErrorBoundPolicy::Fixed(ErrorBound::Abs(1e-6)),
        };
        let enc = strategy.encode(&cg).unwrap();
        let mut restored = ConjugateGradient::unpreconditioned(
            sys,
            Vector::zeros(n),
            StoppingCriteria::new(1e-10, 1000),
        );
        strategy
            .recover(&mut restored, &enc.payloads, enc.iteration, &[])
            .unwrap();
        for (a, b) in cg.solution().iter().zip(restored.solution().iter()) {
            assert!((a - b).abs() <= 1e-6 * (1.0 + 1e-9));
        }
    }

    #[test]
    fn none_strategy_encodes_nothing_and_cannot_recover() {
        let sys = plain_system(6);
        let n = sys.dim();
        let mut jacobi = Jacobi::new(sys, Vector::zeros(n), StoppingCriteria::new(1e-8, 1000));
        jacobi.step();
        let enc = CheckpointStrategy::None.encode(&jacobi).unwrap();
        assert!(enc.payloads.is_empty());
        assert_eq!(enc.encoded_bytes(), 0);
        assert!(CheckpointStrategy::None
            .recover(&mut jacobi, &enc.payloads, 0, &[])
            .is_err());
    }

    #[test]
    fn malformed_payloads_rejected() {
        let sys = plain_system(6);
        let n = sys.dim();
        let mut jacobi = Jacobi::new(sys, Vector::zeros(n), StoppingCriteria::new(1e-8, 1000));
        // Missing x.
        assert!(matches!(
            CheckpointStrategy::lossy_default().recover(&mut jacobi, &[], 0, &[]),
            Err(StrategyError::Malformed(_))
        ));
        // Truncated framed payload.
        let bad = vec![("x".to_string(), vec![1u8, 2, 3])];
        assert!(CheckpointStrategy::lossy_default()
            .recover(&mut jacobi, &bad, 0, &[])
            .is_err());
        // Raw payload with a bad length.
        let bad_raw = vec![("x".to_string(), vec![0u8; 13])];
        assert!(CheckpointStrategy::Traditional
            .recover(&mut jacobi, &bad_raw, 0, &[])
            .is_err());
    }

    #[test]
    fn strategy_error_display() {
        assert!(StrategyError::Compression("x".into()).to_string().contains('x'));
        assert!(StrategyError::Malformed("y".into()).to_string().contains('y'));
    }
}
