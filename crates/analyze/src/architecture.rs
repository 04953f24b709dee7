//! Architecture rules: every "not here" rule of the workspace as one table
//! — the structural invariants the simplicity changes established (one
//! codec seam, one checkpoint store, one way onto the pool, …), the
//! determinism contract (no hash iteration, clock read, atomic
//! accumulation or raw thread where it could reach a kernel's bits) and the
//! raw-memory allowlist — so `cargo test` keeps a deleted copy deleted.
//!
//! Each row of [`RULES`] has one of two shapes:
//!
//! * [`Rule::Retired`] — none of `tokens` may appear in `scope`: a name
//!   that was deleted does not come back.
//! * [`Rule::Count`] — `token` appears exactly `n` times in `scope` (at
//!   least `n` with `at_least`): one definition, one call site.
//!
//! Tokens match as whole identifiers ([`find_token`]) on the code channel,
//! so comments and string contents never match — which is also why the
//! table's own literals never match themselves.  A violation is an
//! `architecture` diagnostic ending in the row's `why`.  Rules take no
//! waiver: to change one, edit its row.  A new "not here" rule is a
//! new row.

use crate::source::{cfg_test_mask, find_token, SourceFile};
use crate::Diagnostic;

/// The files a rule reads.
#[derive(Debug)]
pub struct Scope {
    /// Workspace-relative path prefixes: a directory ending in `/`, or a file.
    pub paths: &'static [&'static str],
    /// Files whose path contains any of these segments are skipped.
    pub skip: &'static [&'static str],
    /// Only production code counts: `#[cfg(test)]` items are skipped.
    pub production: bool,
}

impl Scope {
    fn covers(&self, rel: &str) -> bool {
        self.paths.iter().any(|p| rel.starts_with(p))
            && !self.skip.iter().any(|s| rel.contains(s))
    }
}

/// One structural invariant.
#[derive(Debug)]
pub enum Rule {
    /// None of `tokens` appears in `scope`.
    Retired {
        /// The deleted names.
        tokens: &'static [&'static str],
        /// Where they must not appear.
        scope: Scope,
        /// Why they stay deleted; ends every diagnostic of the row.
        why: &'static str,
    },
    /// `token` appears exactly `n` times in `scope`, or at least `n` times
    /// when `at_least`.
    Count {
        /// The counted token.
        token: &'static str,
        /// Where it is counted.
        scope: Scope,
        /// The expected count.
        n: usize,
        /// Whether `n` is only a lower bound.
        at_least: bool,
        /// Why the count holds; ends the row's diagnostic.
        why: &'static str,
    },
}

const fn code(paths: &'static [&'static str]) -> Scope {
    Scope { paths, skip: &[], production: true }
}

const fn tree(paths: &'static [&'static str]) -> Scope {
    Scope { paths, skip: &[], production: false }
}

const fn retired(tokens: &'static [&'static str], scope: Scope, why: &'static str) -> Rule {
    Rule::Retired { tokens, scope, why }
}

const fn once(token: &'static str, scope: Scope, why: &'static str) -> Rule {
    Rule::Count { token, scope, n: 1, at_least: false, why }
}

const fn at_least_once(
    token: &'static str,
    path: &'static [&'static str],
    why: &'static str,
) -> Rule {
    Rule::Count { token, scope: code(path), n: 1, at_least: true, why }
}

const CODECS: &[&str] = &["SzCompressor", "ZfpCompressor", "LosslessPipeline", "RawCodec"];
const CORE: &[&str] = &["crates/core/src/"];
const EXECUTOR: &[&str] = &["crates/core/src/executor.rs"];
const SZ: Scope = code(&["crates/compress/src/sz.rs"]);
const STRATEGY: Scope = code(&["crates/core/src/strategy.rs"]);
const CG: &[&str] = &["crates/solvers/src/cg.rs"];
const GMRES: &[&str] = &["crates/solvers/src/gmres.rs"];
const JACOBI: &[&str] = &["crates/solvers/src/jacobi.rs"];
const CKPT: &[&str] = &["crates/ckpt/src/"];
const SHARD: &[&str] = &["crates/sparse/src/shard.rs"];
/// The kernel crates, whose results are bit-identical at any thread count.
const KERNELS: &[&str] = &["crates/sparse/src/", "crates/compress/src/", "crates/solvers/src/"];
/// Every tree that holds Rust code.
const ALL: &[&str] = &["crates/", "shims/", "src/", "examples/", "tests/"];
/// The crates and the umbrella package's sources, tests and examples.
const USERS: &[&str] = &["crates/", "src/", "tests/", "examples/"];

/// The rules, grouped by the change or contract that established them.
pub const RULES: &[Rule] = &[
    // One checkpoint path in lcr-core: both fronts and their shared loop
    // encode through `CheckpointStrategy`, and the checkpointer alone opens
    // a `DiskStore` (the figure harness measures codecs directly).
    retired(CODECS, code(&["crates/core/src/runner.rs", "crates/core/src/sharded.rs",
        "crates/core/src/executor.rs"]), "the fronts and their loop code via CheckpointStrategy"),
    once("DiskStore::open_with_backend", code(CORE), "lcr-core opens a DiskStore in one place"),
    once("DiskStore::open_with_backend", code(EXECUTOR), "the checkpointer opens the store, once"),
    retired(&["DiskStore::open"], code(CORE),
        "the checkpointer names its backend (no backend means OsBackend)"),
    // One SZ decoder: `Codec::decode_chain` is the only way from stream
    // bytes to values.
    once("delta::decode_order1", SZ, "sz.rs un-deltas a block's symbols in one place"),
    once("fn reconstruct_block", SZ, "sz.rs has one reconstruction loop"),
    retired(&["decompress_abs", "decode_block_abs", "reconstruct_block_v4",
        "reconstruct_block_from", "read_log_side_channels", "check_chain_shape", "decode_codes",
        "decode_final_abs", "read_unpred_verbatim"], SZ,
        "a deleted SZ decoder is back; decode through Codec::decode_chain"),
    retired(&["decode_blocks2"], tree(&["crates/compress/src/parblock.rs"]),
        "parblock::decode_blocks returns one result per block"),
    retired(&["fn compress_temporal_into", "fn decompress_chain"], SZ,
        "SZ chains go through Codec::encode_into and Codec::decode_chain, not a wrapper"),
    // One codec seam: raw, lossless, SZ and ZFP are `Codec`s (the oracle
    // under `tests/` keeps its own encoder).
    retired(&["trait LossyCompressor", "trait LosslessCompressor", "measure_lossless",
        "fn compress_abs", "fn encode_block_abs", "QUANT_SCRATCH", "fn lossy_codec",
        "fn bytes_to_vector", "stream_delta_mode"],
        Scope { paths: &["crates/"], skip: &["/tests/"], production: false },
        "a second codec trait, SZ encoder or inline codec is back; implement Codec"),
    retired(&["LZSS_ID"], tree(&["crates/compress/"]),
        "LZSS is the lossless pipeline's byte stage, not a Codec with a stream of its own"),
    retired(&["FpcCodec", "LzssCodec"], tree(ALL),
        "FPC and LZSS are LosslessPipeline's private stages: one Codec per strategy"),
    once("huffman::Plan::of", SZ, "sz.rs plans a Huffman blob in one place: one encoder"),
    // One Huffman alphabet and one code-length limit: the entropy stage
    // codes only what SZ writes (the oracle under `tests/` keeps its own).
    retired(&["limit_depths", "BUILD_MAX_LEN"], tree(&["crates/compress/src/"]),
        "Huffman codes are at most 32 bits by construction; no SZ blob needs a length limiter"),
    once("SzCompressor", STRATEGY, "strategy.rs maps the SZ strategy to its codec once"),
    once("ZfpCompressor", STRATEGY, "strategy.rs maps the ZFP strategy to its codec once"),
    once("LosslessPipeline", STRATEGY, "strategy.rs maps Lossless to its codec once"),
    once("RawCodec", STRATEGY, "strategy.rs maps Traditional to its codec once"),
    // One solver shape: every method is one recurrence over `Progress`
    // behind `TryIterativeMethod`, written over a `Space`.
    once("IterativeMethod for",
        Scope { paths: &["crates/"], skip: &["/bin/"], production: true },
        "IterativeMethod has one impl; implement TryIterativeMethod over Progress"),
    once("IterativeMethod for", code(&["crates/solvers/src/lib.rs"]),
        "the one IterativeMethod impl is the blanket impl in lcr-solvers"),
    at_least_once("Progress", CG, "CG keeps its books in Progress"),
    at_least_once("Progress", GMRES, "GMRES keeps its books in Progress"),
    at_least_once("Progress", JACOBI, "Jacobi keeps its books in Progress"),
    at_least_once("Space", CG, "CG is written over Space, so both fronts run it"),
    at_least_once("Space", GMRES, "GMRES is written over Space, so both fronts run it"),
    at_least_once("Space", JACOBI, "Jacobi is written over Space, so both fronts run it"),
    retired(&["enum ShardedMethod"], tree(&["crates/"]),
        "a second method list is back; ShardedMethod is an alias of SolverKind"),
    once("ShardedMethod", Scope { paths: ALL, skip: &["crates/bench/src/bin/lcr_benchmark/"],
        production: false }, "spell SolverKind: the alias is kept only for lcr_benchmark"),
    retired(&["GaussSeidel", "Sor", "Ssor", "StationarySolver", "enum Sweep", "relaxed_sweep",
        "Ic0Preconditioner", "split_ldu", "uniform_row_nnz", "trait Deserialize",
        "derive_deserialize", "BiCgStab", "bicgstab_p_update", "waxpy_norm2", "fn dot2",
        "fn axpy2"], tree(ALL), "a deleted solver, preconditioner or dead item is back"),
    retired(&["Vec<Vec<f64>>"], tree(SHARD), "the shard board reduces one quantity per round"),
    retired(&["StoppingCriteria {"], code(CORE),
        "one stopping rule on both fronts: build criteria with StoppingCriteria::new"),
    // One checkpoint store: both tiers of `FtiContext` are a `DiskStore`,
    // with one commit path.
    once("fn front_chain_len", code(CKPT), "chain-aware eviction is defined once: one store"),
    once("fn encoding_for", code(CKPT), "delta-base resolution is defined once: one store"),
    once("fn push_from_buffer", code(CKPT), "push_from_buffer is the store's one write entry"),
    retired(&["CheckpointStore", "StoredCheckpoint", "latest_chain"], tree(USERS),
        "the second checkpoint store is back; the memory tier is DiskStore over MemBackend"),
    retired(&["push_from_buffer_async", "WriteBehind", "shutdown_worker",
        "total_write_seconds", "with_degrade_after"], tree(USERS),
        "a second commit path is back; write-behind joins one thread per write"),
    retired(&["mpsc"], tree(CKPT), "write-behind has no worker and no channels"),
    retired(&["chain_cache", "chain_scans"], tree(CKPT),
        "recovery reads and validates what is on disk: the store keeps no chain memo"),
    // An evicted checkpoint's file becomes the next commit's storage, so a
    // steady-state commit unlinks nothing.
    Rule::Count { token: "remove_file", scope: code(&["crates/ckpt/src/disk.rs"]), n: 3,
        at_least: false, why: "the store removes a file only when it opens (stray .tmp files), \
            when a commit evicts more than one file or cannot rename its evictee to the next \
            .tmp, and in discard_newest" },
    // One storage level: every checkpoint goes to FTI's L4, the PFS.
    retired(&["ReedSolomon", "bandwidth_factor"], tree(USERS),
        "every checkpoint is written to the PFS; CheckpointLevel has no faster level"),
    retired(&["CheckpointLevel", "level_to_u8", "level_from_u8"],
        tree(&["crates/ckpt/src/disk.rs", "crates/ckpt/src/store.rs"]),
        "the store and the file format know no storage level: the header's level byte is 3"),
    // The benchmark's names are a pinned adapter surface: `lcr_benchmark`
    // builds its `RunConfig` as an exhaustive literal naming
    // `ExecutionBackend`, and nothing else does.  Test helpers that return
    // a `RunConfig` spell `-> RunConfig {`, so the literal row reads
    // production code; an exhaustive literal anywhere names the backend.
    Rule::Count { token: "ExecutionBackend", scope: Scope { paths: ALL,
        skip: &["crates/bench/src/bin/lcr_benchmark/"], production: false }, n: 4,
        at_least: false, why: "ExecutionBackend is kept only for lcr_benchmark's RunConfig \
            literal: its definition, the field, baseline's value and the re-export" },
    Rule::Count { token: "RunConfig {", scope: Scope { paths: &["crates/", "src/", "examples/"],
        skip: &["crates/bench/src/bin/lcr_benchmark/"], production: true }, n: 3,
        at_least: false, why: "build a RunConfig with RunConfig::baseline: the struct, its impl \
            and baseline's literal are the only others outside lcr_benchmark" },
    // One way onto the pool: `rayon::run_items` hands every task an owned
    // item.
    retired(&["par_iter", "into_par_iter", "rayon::prelude", "ParSource", "SendPtr",
        "from_raw_parts_mut", "ptr::read"], tree(ALL),
        "a hand-rolled way onto the pool is back; hand tasks owned items"),
    once("fn run_items", tree(ALL), "run_items is defined once: one way onto the pool"),
    once("pool::execute", tree(&["shims/rayon/src/"]), "run_items is the pool's only caller"),
    // One build: no feature flag; each partition is checked where it is made.
    retired(&["racecheck", "ClaimSet", "for_racecheck", "override_plan_for_racecheck",
        "run_chunks"], tree(ALL),
        "the racecheck build is retired; check a partition where it is made, in every build"),
    // One shard board: shards publish into their own posts and cross one
    // generation barrier.
    retired(&["mpsc", "ShardCoordinator", "try_serve", "enum Request", "enum Reply",
        "CoordinatorGone"], code(SHARD), "shards meet on the board: no channel, no protocol"),
    retired(&["ShardCoordinator", "try_serve", "abort_and_drain"], tree(ALL),
        "the shard coordinator is back; shards meet on the board"),
    // One row partition: `ShardLayout` deals out the blocks of a system.
    retired(&["BlockRowPartition", "RankRange"], tree(USERS),
        "ShardLayout is the one block-row partition"),
    retired(&["diagonal_block"], tree(USERS),
        "block-Jacobi slices its blocks itself; CsrMatrix has no sub-block copy"),
    // One SpMV: a shard's product runs its local matrix's own plan.
    retired(&["spmv_seq"], tree(ALL),
        "one SpMV serves both fronts: ShardedCsr::spmv runs the local matrix's plan"),
    // One operator per rank: the stencil generators write CSR directly, and
    // CG runs on the paper's negative-definite matrix as is.
    retired(&["CooMatrix"], code(&["crates/sparse/src/poisson.rs"]),
        "the Poisson generators write CSR rows directly: no triplet list, no sort"),
    retired(&["negated"], code(&["crates/core/src/", "crates/solvers/src/"]),
        "CG runs on the paper's system as is; a negated copy of A doubles the operator"),
    // One memory pass per basis vector: GMRES keeps its Krylov basis across
    // cycles, so a step allocates no vector once a cycle has reached it,
    // and ILU(0) factors have one format, fixed-width rows.
    Rule::Count { token: "zeros", scope: code(GMRES), n: 3, at_least: false,
        why: "GMRES makes w, x0 and each basis vector once; a step allocates no vector" },
    retired(&["Triangle", "row_range"], code(&["crates/solvers/src/precond.rs"]),
        "ILU(0) factors are fixed-width rows: one factor format, no CSR triangle beside it"),
    // One column-index array: `CsrMatrix` stores its columns once, as `u32`.
    retired(&["cols32", "ColIdx"], tree(USERS), "a second column-index array is back"),
    retired(&["indices: Vec<usize>", "fn indices(&self) -> &[usize]"],
        code(&["crates/sparse/src/csr.rs"]), "CsrMatrix holds its column indices as u32"),
    // Bit-identical at any thread count: kernel code never iterates a hash,
    // reads a clock or accumulates through atomics, and only the pool and
    // the write-behind spawn threads.
    retired(&["HashMap", "HashSet"], code(KERNELS),
        "hash iteration order is nondeterministic; kernel crates use ordered collections"),
    retired(&["Instant::now", "SystemTime", "UNIX_EPOCH"], code(KERNELS),
        "timing must never steer a kernel path; time it from the caller"),
    retired(&["fetch_add", "fetch_sub", "fetch_update", "fetch_or", "fetch_and", "fetch_xor",
        "compare_exchange", "compare_exchange_weak"], code(KERNELS),
        "atomic accumulation is order-nondeterministic; combine chunk partials via run_items"),
    retired(&["thread::spawn", "thread::Builder"], Scope { paths: &["crates/", "shims/", "src/"],
        skip: &["/tests/", "/benches/", "/examples/", "shims/rayon/src/pool.rs",
            "crates/ckpt/src/disk.rs"], production: true },
        "raw threads are the pool's and the write-behind's; run parallel work on the pool"),
    // Raw memory: the unsafe surface stays in the two crates that own it,
    // tests included.  The storage backend cuts a recycled file with the
    // safe `File::set_len`; its crate forbids unsafe code, so no other
    // `set_len` compiles there.
    retired(&["get_unchecked", "get_unchecked_mut", "transmute", "from_raw_parts", "ptr::write",
        "read_volatile", "write_volatile", "drop_in_place", "set_len", "assume_init"],
        Scope { paths: ALL, skip: &["crates/sparse/", "shims/rayon/", "crates/ckpt/src/backend.rs"],
            production: false },
        "raw-memory APIs are confined to crates/sparse and shims/rayon"),
];

/// Runs every row of [`RULES`] over the scanned files.
pub(crate) fn check(files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    for rule in RULES {
        let (tokens, scope, why) = match rule {
            Rule::Retired { tokens, scope, why } => (*tokens, scope, *why),
            Rule::Count { token, scope, why, .. } => (std::slice::from_ref(token), scope, *why),
        };
        let in_scope: Vec<&SourceFile> = files.iter().filter(|f| scope.covers(&f.rel)).collect();
        let mut hits = Vec::new();
        for file in &in_scope {
            let test = cfg_test_mask(&file.lines);
            for (idx, line) in file.lines.iter().enumerate() {
                if scope.production && test[idx] {
                    continue;
                }
                for &token in tokens {
                    let mut rest = line.code.as_str();
                    while let Some(at) = find_token(rest, token) {
                        hits.push((file.rel.as_str(), idx + 1, token));
                        rest = &rest[at + token.len()..];
                    }
                }
            }
        }
        let mut report = |rel: &str, line, message: String| {
            diags.push(Diagnostic { lint: "architecture", rel: rel.to_string(), line, message })
        };
        match *rule {
            _ if in_scope.is_empty() => {
                let missing = format!("no file in {:?}", scope.paths);
                report(scope.paths[0], 0, format!("{missing}; edit the row: {why}"));
            }
            Rule::Retired { .. } => {
                for (rel, line, token) in hits {
                    report(rel, line, format!("`{token}` is retired here: {why}"));
                }
            }
            Rule::Count { n, at_least, .. } if hits.len() == n || (at_least && hits.len() > n) => {}
            Rule::Count { token, n, at_least, .. } => {
                let (rel, line) = hits.first().map_or((scope.paths[0], 0), |h| (h.0, h.1));
                let at: Vec<String> = hits.iter().map(|h| format!("{}:{}", h.0, h.1)).collect();
                let bound = if at_least { "at least " } else { "" };
                let found = format!("`{token}` appears {} times in {:?}", hits.len(), scope.paths);
                report(rel, line, format!("{found} (expected {bound}{n}; at {at:?}): {why}"));
            }
        }
    }
}
