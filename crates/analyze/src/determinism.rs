//! Determinism lints: the bit-identical-at-any-thread-count contract,
//! machine-checked.
//!
//! The workspace's reproducibility claim rests on every parallel kernel
//! routing through the pool's item-ordered driver (`shims/rayon`) and on kernel
//! code never consulting sources of nondeterminism.  These lints deny the
//! known escape hatches:
//!
//! * `thread-spawn` — raw `std::thread` spawning anywhere except the pool
//!   itself (`shims/rayon/src/pool.rs`) and the `DiskStore` write-behind
//!   thread (`crates/ckpt/src/disk.rs`).  Everything else must go through
//!   the deterministic pool.
//! * `hash-collection` — `HashMap`/`HashSet` in the kernel crates
//!   (`sparse`, `compress`, `solvers`): hash iteration order is
//!   randomised across processes, so any kernel-path iteration silently
//!   breaks reproducibility.  Use `BTreeMap`/`Vec` histograms, or waive a
//!   site whose iteration provably sorts first.
//! * `wall-clock` — `Instant::now`/`SystemTime` in kernel crates: timing
//!   must never steer a kernel-path decision.
//! * `atomic-reduction` — atomic read-modify-write in kernel crates:
//!   parallel float reductions must combine per-chunk partials in chunk
//!   order via `rayon::run_items` (or `run_chunks`/`run_ordered` over it),
//!   never accumulate through atomics (whose arrival order is
//!   scheduling-dependent).
//!
//! A site that is sound for a documented reason carries a waiver comment:
//!
//! ```text
//! // lcr-analyze: allow(hash-collection): iteration is sorted by symbol
//! // before use, so hash order never reaches the output.
//! ```
//!
//! Waivers require a justification and apply to the same line or the line
//! below; they are reported in the inventory so review can see every one.

use crate::source::{cfg_test_mask, contains_token, SourceFile};
use crate::Diagnostic;

/// Crates whose `src/` trees are held to the kernel-determinism lints.
const KERNEL_CRATE_PREFIXES: &[&str] = &[
    "crates/sparse/src/",
    "crates/compress/src/",
    "crates/solvers/src/",
];

/// Files allowed to spawn threads directly.
const THREAD_SPAWN_ALLOWLIST: &[&str] =
    &["shims/rayon/src/pool.rs", "crates/ckpt/src/disk.rs"];

/// A recorded waiver, for the inventory.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line of the waiver comment.
    pub line: usize,
    /// The lint being waived.
    pub lint: String,
    /// The stated justification.
    pub reason: String,
}

/// Parses `lcr-analyze: allow(<lint>): <reason>` out of a comment.
fn parse_waiver(comment: &str) -> Option<(String, String)> {
    let pos = comment.find("lcr-analyze: allow(")?;
    let rest = &comment[pos + "lcr-analyze: allow(".len()..];
    let close = rest.find(')')?;
    let lint = rest[..close].trim().to_string();
    let reason = rest[close + 1..]
        .trim_start_matches([':', ' ', '—', '-'])
        .trim()
        .to_string();
    Some((lint, reason))
}

/// Collects waivers and flags reason-less ones.  Returns, per line, the
/// set of lint names waived *for that line* (a waiver covers its own line
/// and, when it sits on a comment-only line, the next line as well —
/// chains of comment-only lines extend downward to the first code line).
fn waiver_map(
    file: &SourceFile,
    diags: &mut Vec<Diagnostic>,
    waivers: &mut Vec<Waiver>,
) -> Vec<Vec<String>> {
    let mut map: Vec<Vec<String>> = vec![Vec::new(); file.lines.len()];
    for (idx, line) in file.lines.iter().enumerate() {
        // Waivers must be plain `//` comments: doc comments describe APIs
        // (and may quote the waiver syntax) but never waive anything.
        if line.doc {
            continue;
        }
        let Some((lint, reason)) = parse_waiver(&line.comment) else {
            continue;
        };
        if reason.len() < 10 {
            diags.push(Diagnostic {
                lint: "waiver-missing-reason",
                rel: file.rel.clone(),
                line: idx + 1,
                message: format!(
                    "waiver for `{lint}` must state a justification after the colon"
                ),
            });
            continue;
        }
        waivers.push(Waiver {
            rel: file.rel.clone(),
            line: idx + 1,
            lint: lint.clone(),
            reason: reason.clone(),
        });
        map[idx].push(lint.clone());
        if file.lines[idx].is_comment_only() {
            // Extend to the first code line below the comment block.
            let mut j = idx + 1;
            while j < file.lines.len() {
                map[j].push(lint.clone());
                if !file.lines[j].is_comment_only() && !file.lines[j].is_blank() {
                    break;
                }
                j += 1;
            }
        }
    }
    map
}

struct DenyRule {
    lint: &'static str,
    tokens: &'static [&'static str],
    message: &'static str,
}

const KERNEL_RULES: &[DenyRule] = &[
    DenyRule {
        lint: "hash-collection",
        tokens: &["HashMap", "HashSet"],
        message: "hash iteration order is nondeterministic; kernel crates must use \
                  ordered collections (or waive a site that sorts before iterating)",
    },
    DenyRule {
        lint: "wall-clock",
        tokens: &["Instant::now", "SystemTime", "UNIX_EPOCH"],
        message: "wall-clock reads are forbidden in kernel crates — timing must never \
                  steer a deterministic kernel path",
    },
    DenyRule {
        lint: "atomic-reduction",
        tokens: &[
            "fetch_add",
            "fetch_sub",
            "fetch_update",
            "fetch_or",
            "fetch_and",
            "fetch_xor",
            "compare_exchange",
            "compare_exchange_weak",
        ],
        message: "atomic read-modify-write accumulation is order-nondeterministic; \
                  parallel reductions must combine chunk partials in chunk order via \
                  `rayon::run_items` (or `run_chunks`/`run_ordered` over it)",
    },
];

/// Runs every determinism lint over one file.  Returns the file's per-line
/// waiver map (the lint names waived for each line; empty for test paths),
/// which the workspace-wide lints consult too.
pub fn lint_file(
    file: &SourceFile,
    diags: &mut Vec<Diagnostic>,
    waivers: &mut Vec<Waiver>,
) -> Vec<Vec<String>> {
    // Tests, benches and examples may spawn, time and hash freely — the
    // contract governs production kernel code.
    let path_is_test = file.rel.contains("/tests/")
        || file.rel.starts_with("tests/")
        || file.rel.contains("/benches/")
        || file.rel.contains("/examples/")
        || file.rel.starts_with("examples/");
    if path_is_test {
        return Vec::new();
    }
    let waived = waiver_map(file, diags, waivers);
    let test_mask = cfg_test_mask(&file.lines);

    // thread-spawn: workspace-wide on src files.
    let spawn_allowed = THREAD_SPAWN_ALLOWLIST.contains(&file.rel.as_str());
    let in_kernel_crate = KERNEL_CRATE_PREFIXES
        .iter()
        .any(|p| file.rel.starts_with(p));

    for (idx, line) in file.lines.iter().enumerate() {
        if test_mask[idx] {
            continue;
        }
        if !spawn_allowed
            && ["thread::spawn", "thread::Builder"]
                .iter()
                .any(|t| contains_token(&line.code, t))
            && !waived[idx].iter().any(|l| l == "thread-spawn")
        {
            diags.push(Diagnostic {
                lint: "thread-spawn",
                rel: file.rel.clone(),
                line: idx + 1,
                message: format!(
                    "raw thread spawning is confined to {THREAD_SPAWN_ALLOWLIST:?}; \
                     route parallel work through the deterministic pool"
                ),
            });
        }
        if !in_kernel_crate {
            continue;
        }
        for rule in KERNEL_RULES {
            if rule.tokens.iter().any(|t| contains_token(&line.code, t))
                && !waived[idx].iter().any(|l| l == rule.lint)
            {
                diags.push(Diagnostic {
                    lint: rule.lint,
                    rel: file.rel.clone(),
                    line: idx + 1,
                    message: rule.message.to_string(),
                });
            }
        }
    }
    waived
}
