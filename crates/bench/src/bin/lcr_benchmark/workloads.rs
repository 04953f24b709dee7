//! The four workloads: their constants, their seeded inputs and the
//! checkpoint strategy of each series.

use lcr_core::{CheckpointStrategy, KillSpec, PaperWorkload, ScaledProblem};
use lcr_solvers::{ConjugateGradient, IterativeMethod, LinearSystem, SolverKind, StoppingCriteria};
use lcr_sparse::poisson::poisson3d;
use lcr_sparse::Vector;

/// What a series checkpoints with.  `None` is the failure-free solve whose
/// time is the productive time; the last two exist only in the traced
/// strategy table of `solve_heavy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    None,
    Lossy,
    Trad,
    Lossless,
    LossyDelta,
}

impl Series {
    pub fn name(self) -> &'static str {
        match self {
            Series::None => "none",
            Series::Lossy => "lossy",
            Series::Trad => "trad",
            Series::Lossless => "lossless",
            Series::LossyDelta => "lossy_delta",
        }
    }
}

/// The series every workload runs in every round.
pub const SERIES: [Series; 3] = [Series::None, Series::Lossy, Series::Trad];

/// Which solver stack and executor a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `FaultTolerantRunner` over CG + block-Jacobi(16), rtol 1e-7.
    Cg,
    /// `FaultTolerantRunner` over GMRES(30) + block-Jacobi, rtol 7e-5,
    /// Theorem-3 adaptive bound.
    Gmres,
    /// `try_run_sharded` over sharded CG on this many shards; the `trad`
    /// series is the single-process runner over unpreconditioned CG, the
    /// same algorithm on the only executor that implements `Traditional`.
    ShardedCg(usize),
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub grid: usize,
    pub kind: Kind,
    /// Checkpoint every this many iterations.
    pub interval: usize,
    /// `anchor_interval_snapshots` of the `lossy` series (0 = direct).
    pub anchor: usize,
    /// Executed iterations of each crashed phase, before the seeded ±1.
    pub crash_after: &'static [usize],
}

/// Sized on the 2-thread sandbox so that one round (every series once)
/// takes 0.9–1.1 s and 17 or more rounds fit in `run_seconds`; all working
/// sets (10–28 MB) exceed the 2 MiB L2 and fit the 260 MiB L3.
pub const SPECS: [Spec; 4] = [
    // The paper's normal regime: few checkpoints, one crash; solver and
    // SpMV dominate, codec and disk barely show.
    Spec {
        name: "solve_heavy",
        grid: 48,
        kind: Kind::Cg,
        interval: 20,
        anchor: 0,
        crash_after: &[50],
    },
    // A commit after every iteration and no crash: encode + commit
    // dominate and the read side is never executed.
    Spec {
        name: "ckpt_heavy",
        grid: 40,
        kind: Kind::Cg,
        interval: 1,
        anchor: 8,
        crash_after: &[],
    },
    // Eight crashes six iterations apart: store reopen, read + CRC,
    // delta-chain replay, solver rebuild, restart and re-execution.
    Spec {
        name: "recovery_heavy",
        grid: 40,
        kind: Kind::Gmres,
        interval: 4,
        anchor: 4,
        crash_after: &[6, 6, 6, 6, 6, 6, 6, 6],
    },
    // The only workload on the sharded executor: halo exchange, blockwise
    // reductions, epoch-commit barrier, survivor halo replay.
    Spec {
        name: "sharded_ft",
        grid: 56,
        kind: Kind::ShardedCg(2),
        interval: 10,
        anchor: 0,
        crash_after: &[35, 40],
    },
];

impl Spec {
    /// The `--smoke` variant: 12³, frequent checkpoints, one early crash.
    pub fn smoke(&self) -> Spec {
        Spec {
            grid: 12,
            interval: self.interval.min(4),
            crash_after: if self.crash_after.is_empty() {
                &[]
            } else {
                &[6]
            },
            ..self.clone()
        }
    }
}

/// SplitMix64: the benchmark's only randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The manufactured solution: three sinusoids along the unknown index with
/// fixed frequencies, amplitudes seeded within ±10 % and phases within
/// ±0.03 rad of fixed values.  The seed must vary the input without varying
/// the amount of work: with free phases the iteration count of one
/// workload moved by up to 25 % from seed to seed.
pub fn seeded_solution(n: usize, rng: &mut Rng) -> Vector {
    let tau = std::f64::consts::TAU;
    let waves: Vec<(f64, f64, f64)> = [(1.0, 1.0, 0.0), (2.0, 0.5, 1.0), (3.0, 0.25, 2.0)]
        .iter()
        .map(|&(freq, amp, phase)| {
            (
                freq,
                amp * rng.uniform(0.9, 1.1),
                phase + rng.uniform(-0.03, 0.03),
            )
        })
        .collect();
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            waves
                .iter()
                .map(|&(freq, amp, phase)| amp * (tau * freq * t + phase).sin())
                .sum::<f64>()
        })
        .collect()
}

/// Executed-iteration cap of each crashed phase: the spec's plan with a
/// seeded −1/0/+1 on every entry.  The jitter never crosses a checkpoint
/// boundary, so the amount of rolled-back work moves by one iteration
/// while the number of crashes and restarts stays fixed.
pub fn crash_plan(spec: &Spec, rng: &mut Rng) -> Vec<usize> {
    spec.crash_after
        .iter()
        .map(|&k| k + (rng.next_u64() % 3) as usize - 1)
        .collect()
}

/// One workload's generated inputs.
pub struct Instance {
    pub spec: Spec,
    pub problem: ScaledProblem,
    /// The negated (SPD) system the sharded CG and its unpreconditioned
    /// single-process comparator solve.
    pub spd: LinearSystem,
    pub plan: Vec<usize>,
    pub threads: usize,
    /// Iteration cap of every solver and of the last phase of every
    /// series: 20× the failure-free count once that is known, so a
    /// strategy that never recovers ends instead of hanging.
    pub max_iterations: usize,
}

impl Instance {
    /// Problem assembly, SpMV plan and seeded right-hand side `b = A·x*`.
    pub fn assemble(spec: &Spec, seed: u64, threads: usize) -> Instance {
        let mut rng = Rng::new(seed);
        let a = poisson3d(spec.grid);
        let xstar = seeded_solution(a.nrows(), &mut rng);
        let b = a.mul_vec(&xstar);
        let plan = crash_plan(spec, &mut rng);
        let mut neg_a = a.clone();
        neg_a.values_mut().iter_mut().for_each(|v| *v = -*v);
        let mut neg_b = b.clone();
        neg_b.scale(-1.0);
        let spd = LinearSystem::new(neg_a, neg_b);
        let system = LinearSystem::new(a, b);
        system.a.plan();
        spd.a.plan();
        let n = system.dim();
        Instance {
            spec: spec.clone(),
            // One process at the solved size: every byte the runner
            // reports is a real byte, not a paper-scale extrapolation.
            problem: ScaledProblem {
                system,
                exact_solution: xstar,
                processes: 1,
                paper_global_unknowns: n,
                local_grid_edge: spec.grid,
            },
            spd,
            plan,
            threads,
            max_iterations: 10_000,
        }
    }

    pub fn unknowns(&self) -> usize {
        self.problem.system.dim()
    }

    pub fn rtol(&self) -> f64 {
        match self.spec.kind {
            Kind::Gmres => 7e-5,
            Kind::Cg | Kind::ShardedCg(_) => 1e-7,
        }
    }

    /// Bytes one solve streams per iteration: the matrix plus the solver's
    /// work vectors (CG keeps x, r, z, p, q; GMRES its 31-vector basis).
    pub fn working_set_bytes(&self) -> usize {
        let vectors = if self.spec.kind == Kind::Gmres { 34 } else { 5 };
        self.problem.system.a.storage_bytes() + vectors * self.unknowns() * 8
    }

    /// The shard count, if `series` of this workload runs on the sharded
    /// executor (which implements `none` and lossy checkpoints only).
    pub fn sharded(&self, series: Series) -> Option<usize> {
        match (self.spec.kind, series) {
            (Kind::ShardedCg(shards), Series::None | Series::Lossy) => Some(shards),
            _ => None,
        }
    }

    /// A fresh solver, as a restarted process would build it.
    pub fn build_solver(&self) -> Box<dyn IterativeMethod> {
        let paper = PaperWorkload::poisson(1, self.spec.grid);
        match self.spec.kind {
            Kind::Cg => paper.build_solver(&self.problem, SolverKind::Cg, self.max_iterations),
            Kind::Gmres => {
                paper.build_solver(&self.problem, SolverKind::Gmres, self.max_iterations)
            }
            Kind::ShardedCg(_) => Box::new(ConjugateGradient::unpreconditioned(
                self.spd.clone(),
                Vector::zeros(self.unknowns()),
                StoppingCriteria::new(self.rtol(), self.max_iterations),
            )),
        }
    }

    /// Strategy and anchor interval of a series.
    pub fn strategy(&self, series: Series) -> (CheckpointStrategy, usize) {
        let lossy = match self.spec.kind {
            Kind::Gmres => CheckpointStrategy::lossy_gmres(),
            _ => CheckpointStrategy::lossy_default(),
        };
        match series {
            Series::None => (CheckpointStrategy::None, 0),
            Series::Lossy => (lossy, self.spec.anchor),
            Series::Trad => (CheckpointStrategy::Traditional, 0),
            Series::Lossless => (CheckpointStrategy::lossless_default(), 0),
            Series::LossyDelta => (lossy, 8),
        }
    }

    /// The crash plan as the sharded executor takes it: the crash after the
    /// i-th phase kills shard `(i + 1) mod shards` at the running total of
    /// executed iterations.
    pub fn kills(&self, shards: usize) -> Vec<KillSpec> {
        let mut at_iteration = 0;
        self.plan
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                at_iteration += k;
                KillSpec {
                    shard: (i + 1) % shards,
                    at_iteration,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_bit_identical_rhs_and_another_seed_differs() {
        let spec = SPECS[0].smoke();
        let bits = |seed| -> Vec<u64> {
            let inst = Instance::assemble(&spec, seed, 1);
            inst.problem
                .system
                .b
                .as_slice()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(7), bits(7));
        assert_ne!(bits(7), bits(8));
    }

    #[test]
    fn right_hand_side_is_a_times_the_manufactured_solution() {
        let inst = Instance::assemble(&SPECS[2].smoke(), 3, 1);
        let p = &inst.problem;
        let r = p.system.a.residual(&p.exact_solution, &p.system.b);
        assert_eq!(r.norm2(), 0.0);
        // The SPD twin has the same solution.
        let r = inst.spd.a.residual(&p.exact_solution, &inst.spd.b);
        assert_eq!(r.norm2(), 0.0);
    }

    #[test]
    fn crash_plan_jitters_each_phase_by_at_most_one() {
        let spec = &SPECS[2];
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..40 {
            let plan = crash_plan(spec, &mut Rng::new(seed));
            assert_eq!(plan.len(), spec.crash_after.len());
            for (got, want) in plan.iter().zip(spec.crash_after) {
                assert!(got.abs_diff(*want) <= 1, "{got} vs {want}");
                seen.insert(*got);
            }
            assert_eq!(plan, crash_plan(spec, &mut Rng::new(seed)));
        }
        assert_eq!(seen.len(), 3, "all of -1, 0, +1 occur");
        assert!(crash_plan(&SPECS[1], &mut Rng::new(1)).is_empty());
    }

    #[test]
    fn kills_accumulate_the_plan_and_alternate_shards() {
        let mut inst = Instance::assemble(&SPECS[3].smoke(), 1, 1);
        inst.plan = vec![35, 40];
        let kills = inst.kills(2);
        assert_eq!(
            kills,
            vec![
                KillSpec {
                    shard: 1,
                    at_iteration: 35
                },
                KillSpec {
                    shard: 0,
                    at_iteration: 75
                },
            ]
        );
    }
}
