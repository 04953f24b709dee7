//! Seeded-violation tests: build a throwaway fake workspace on disk with
//! one deliberate violation per lint class — and, generated from the
//! `architecture` table, one per row token plus one per `skip` entry — and
//! assert `lcr-analyze` flags each violation and honours each skip: the
//! analyzer's false-negative (and allowlist) gate.  (All fixture source lives
//! in string literals or comes from the table at run time, so this file
//! does not trip the live-tree scan.)

use lcr_analyze::analyze_workspace;
use lcr_analyze::architecture::{Rule, Scope, RULES};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str, files: &[(&str, &str)]) -> Fixture {
        // Unique per call: the tests run in parallel, several per tag.
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let root = std::env::temp_dir().join(format!(
            "lcr-analyze-{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        for (rel, content) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, content).unwrap();
        }
        Fixture { root }
    }

    fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

const WORKSPACE_MANIFEST: &str = "[workspace]\nmembers = [\"crates/sparse\"]\n";

fn package_manifest(name: &str) -> String {
    format!("[package]\nname = \"{name}\"\nversion = \"0.0.0\"\nedition = \"2021\"\n")
}

fn lints_for<'a>(
    report: &'a lcr_analyze::Report,
    rel: &str,
) -> Vec<(&'a str, usize)> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.rel == rel)
        .map(|d| (d.lint, d.line))
        .collect()
}

/// Every diagnostic but the architecture table's, whose rows name files
/// of the real tree that a fixture workspace does not have.
fn per_file_lints(report: &lcr_analyze::Report) -> Vec<&lcr_analyze::Diagnostic> {
    report.diagnostics.iter().filter(|d| d.lint != "architecture").collect()
}

#[test]
fn undocumented_unsafe_and_missing_deny_attr_are_flagged() {
    let manifest = package_manifest("fake-sparse");
    let fx = Fixture::new(
        "unsafe",
        &[
            ("Cargo.toml", WORKSPACE_MANIFEST),
            ("crates/sparse/Cargo.toml", &manifest),
            (
                "crates/sparse/src/lib.rs",
                "pub fn peek(v: &[f64]) -> f64 {\n    unsafe { *v.get_unchecked(0) }\n}\n",
            ),
        ],
    );
    let report = analyze_workspace(fx.root()).unwrap();
    let lints = lints_for(&report, "crates/sparse/src/lib.rs");
    assert!(
        lints.contains(&("undocumented-unsafe", 2)),
        "expected undocumented-unsafe at line 2, got {lints:?}"
    );
    assert!(
        lints.contains(&("missing-deny-unsafe-op", 1)),
        "unsafe-using crate without the deny attr must be flagged, got {lints:?}"
    );
}

#[test]
fn documented_unsafe_with_attrs_is_clean() {
    let manifest = package_manifest("fake-sparse");
    let fx = Fixture::new(
        "unsafe-ok",
        &[
            ("Cargo.toml", WORKSPACE_MANIFEST),
            ("crates/sparse/Cargo.toml", &manifest),
            (
                "crates/sparse/src/lib.rs",
                "#![deny(unsafe_op_in_unsafe_fn)]\n\
                 pub fn peek(v: &[f64]) -> f64 {\n    \
                 // SAFETY: caller guarantees v is non-empty.\n    \
                 unsafe { *v.get_unchecked(0) }\n}\n",
            ),
            (
                "crates/sparse/tests/uses.rs",
                "#[test]\nfn t() { assert_eq!(fake_sparse::peek(&[1.0]), 1.0); }\n",
            ),
        ],
    );
    let report = analyze_workspace(fx.root()).unwrap();
    assert!(
        per_file_lints(&report).is_empty(),
        "clean fixture must produce no diagnostics, got {:?}",
        report.diagnostics
    );
    assert_eq!(report.unsafe_sites.len(), 1);
    assert!(report.unsafe_sites[0].justification.is_some());
}

#[test]
fn missing_forbid_unsafe_is_flagged() {
    let manifest = package_manifest("clean-crate");
    let fx = Fixture::new(
        "forbid",
        &[
            ("Cargo.toml", WORKSPACE_MANIFEST),
            ("crates/clean/Cargo.toml", &manifest),
            ("crates/clean/src/lib.rs", "pub fn id(x: u32) -> u32 { x }\n"),
        ],
    );
    let report = analyze_workspace(fx.root()).unwrap();
    let lints = lints_for(&report, "crates/clean/src/lib.rs");
    assert!(
        lints.contains(&("missing-forbid-unsafe", 1)),
        "unsafe-free crate without forbid must be flagged, got {lints:?}"
    );
}

#[test]
fn waiver_without_reason_is_itself_a_violation() {
    let fx = Fixture::new(
        "waiver",
        &[
            ("Cargo.toml", WORKSPACE_MANIFEST),
            (
                "crates/sparse/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 // lcr-analyze: allow(dead-public-item):\n\
                 pub fn orphan() {}\n",
            ),
        ],
    );
    let report = analyze_workspace(fx.root()).unwrap();
    let lints = lints_for(&report, "crates/sparse/src/lib.rs");
    assert!(
        lints.contains(&("waiver-missing-reason", 2)),
        "a reason-less waiver must be flagged, got {lints:?}"
    );
    assert!(
        lints.contains(&("dead-public-item", 3)),
        "a reason-less waiver must not silence the lint, got {lints:?}"
    );
    assert!(report.waivers.is_empty(), "a reason-less waiver is not recorded");
}

#[test]
fn waiver_must_name_the_lint_that_reads_waivers() {
    let fx = Fixture::new(
        "waiver-lint",
        &[
            ("Cargo.toml", WORKSPACE_MANIFEST),
            (
                "crates/sparse/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 // lcr-analyze: allow(architecture): a reason of some length\n\
                 fn f() {}\n\
                 // lcr-analyze: allow(dead-public-itme): a reason of some length\n\
                 pub fn orphan() {}\n",
            ),
        ],
    );
    let report = analyze_workspace(fx.root()).unwrap();
    let lints = lints_for(&report, "crates/sparse/src/lib.rs");
    for line in [2, 4] {
        assert!(
            lints.contains(&("waiver-missing-reason", line)),
            "a waiver naming a lint that reads none must be flagged at line {line}, got {lints:?}"
        );
    }
    assert!(
        lints.contains(&("dead-public-item", 5)),
        "a misspelt waiver must not silence the lint, got {lints:?}"
    );
    assert!(report.waivers.is_empty(), "neither waiver is recorded");
}

#[test]
fn violations_inside_strings_and_test_code_are_ignored() {
    let manifest = package_manifest("fake-sparse");
    let fx = Fixture::new(
        "masked",
        &[
            ("Cargo.toml", WORKSPACE_MANIFEST),
            ("crates/sparse/Cargo.toml", &manifest),
            (
                "crates/sparse/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 const DOC: &str = \"unsafe { *v.get_unchecked(0) } and pub fn orphan() {}\";\n\
                 #[cfg(test)]\n\
                 mod tests {\n    \
                 pub fn helper() {}\n\
                 }\n",
            ),
        ],
    );
    let report = analyze_workspace(fx.root()).unwrap();
    assert!(
        per_file_lints(&report).is_empty(),
        "string contents and #[cfg(test)] code must not be linted, got {:?}",
        report.diagnostics
    );
}

#[test]
fn dead_public_items_are_flagged_unless_used_elsewhere_or_waived() {
    let manifest = package_manifest("fake-sparse");
    let fx = Fixture::new(
        "dead",
        &[
            ("Cargo.toml", WORKSPACE_MANIFEST),
            ("crates/sparse/Cargo.toml", &manifest),
            (
                "crates/sparse/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub mod inner;\n\
                 pub use inner::{only_reexported, Live};\n\
                 pub fn orphan() {}\n\
                 pub(crate) fn crate_private() {}\n\
                 // lcr-analyze: allow(dead-public-item): fixture waiver with a real reason\n\
                 pub fn waived() {}\n\
                 #[cfg(test)]\n\
                 mod tests {\n    \
                 #[test]\n    \
                 fn own_tests_do_not_count() { super::orphan(); }\n\
                 }\n",
            ),
            (
                "crates/sparse/src/inner.rs",
                "pub struct Live;\n\
                 pub fn only_reexported() {}\n",
            ),
            (
                "crates/sparse/src/bin/tool/main.rs",
                "pub fn bin_local() {}\nfn main() { bin_local(); }\n",
            ),
            (
                "shims/fake/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn shim_orphan() {}\npub fn shim_used() {}\n",
            ),
            (
                "tests/uses.rs",
                "use fake_sparse::inner;\nfn t() { let _ = fake_sparse::Live; shim_used(); }\n",
            ),
        ],
    );
    let report = analyze_workspace(fx.root()).unwrap();
    let dead: Vec<(&str, usize)> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == "dead-public-item")
        .map(|d| (d.rel.as_str(), d.line))
        .collect();
    assert_eq!(
        dead,
        vec![
            // `pub fn only_reexported`: a `pub use` forwards it, nothing uses it.
            ("crates/sparse/src/inner.rs", 2),
            // `pub fn orphan`: named only by this file's own tests.
            ("crates/sparse/src/lib.rs", 4),
            // The shims are held to what the workspace calls, too.
            ("shims/fake/src/lib.rs", 2),
        ],
        "got {:?}",
        report.diagnostics
    );
    assert_eq!(report.waivers.len(), 1, "the waiver must be recorded");
}

/// A fixture file inside `scope`: the scope's first path, or a file in it.
fn path_in(scope: &Scope) -> String {
    let first = scope.paths[0];
    if first.ends_with('/') {
        format!("{first}fixture.rs")
    } else {
        first.to_string()
    }
}

/// A fixture file that `scope`'s entry `skip` excludes: the file it names,
/// a file in the directory it names, or, for a segment such as `/tests/`,
/// a file under that segment inside the scope's first path.
fn path_skipped(scope: &Scope, skip: &str) -> String {
    if skip.starts_with('/') {
        format!("{}x{skip}fixture.rs", scope.paths[0])
    } else if skip.ends_with('/') {
        format!("{skip}fixture.rs")
    } else {
        skip.to_string()
    }
}

/// The files at which the architecture row naming `token` and `why` fires
/// on a workspace holding only `files`.
fn row_hits(files: &[(&str, &str)], token: &str, why: &str) -> Vec<String> {
    let mut tree = vec![("Cargo.toml", WORKSPACE_MANIFEST)];
    tree.extend_from_slice(files);
    let fx = Fixture::new("architecture", &tree);
    let report = analyze_workspace(fx.root()).unwrap();
    report
        .diagnostics
        .iter()
        .filter(|d| {
            d.lint == "architecture"
                && d.message.contains(&format!("`{token}`"))
                && d.message.ends_with(&format!(": {why}"))
        })
        .map(|d| d.rel.clone())
        .collect()
}

/// Whether that row fires on a workspace holding only `body` at `rel`.
fn row_fires(rel: &str, body: &str, token: &str, why: &str) -> bool {
    !row_hits(&[(rel, body)], token, why).is_empty()
}

#[test]
fn every_architecture_rule_fires_on_its_seeded_violation() {
    let whys: Vec<&str> = RULES
        .iter()
        .map(|rule| match rule {
            Rule::Retired { why, .. } | Rule::Count { why, .. } => *why,
        })
        .collect();
    for (i, why) in whys.iter().enumerate() {
        assert!(!whys[..i].contains(why), "two rows give the reason `{why}`");
    }
    for rule in RULES {
        match rule {
            Rule::Retired { tokens, scope, why } => {
                for token in *tokens {
                    assert!(
                        row_fires(&path_in(scope), &format!("{token}\n"), token, why),
                        "`{token}` in {:?} must fire: {why}",
                        scope.paths
                    );
                }
            }
            Rule::Count { token, scope, n, at_least, why } => {
                // All on one line: a line with two occurrences counts two.
                let seeded = |k: usize| {
                    let body = vec![*token; k].join(" ");
                    row_fires(&path_in(scope), &format!("{body}\n"), token, why)
                };
                assert!(seeded(n - 1), "{} x `{token}` must fire: {why}", n - 1);
                assert_eq!(
                    seeded(n + 1),
                    !at_least,
                    "{} x `{token}` fires only under an exact count: {why}",
                    n + 1
                );
            }
        }
    }
}

#[test]
fn an_eviction_that_unlinks_its_file_fires_the_remove_file_count() {
    let why = RULES
        .iter()
        .find_map(|rule| match rule {
            Rule::Count { token: "remove_file", why, .. } => Some(*why),
            _ => None,
        })
        .expect("the table has a remove_file row");
    let disk = "crates/ckpt/src/disk.rs";
    let sites = "fn open(b: &dyn B) {\n    let _ = b.remove_file(&stray);\n}\n\
        fn register(s: &S) {\n    let _ = s.backend.remove_file(&evicted);\n}\n\
        fn discard_newest(s: &S) {\n    let _ = s.backend.remove_file(&newest);\n}\n";
    let tests = "#[cfg(test)]\nmod tests {\n    fn clean(b: &dyn B) {\n        \
        b.remove_file(&p).unwrap();\n    }\n}\n";
    let clean = format!("{sites}{tests}");
    assert!(row_hits(&[(disk, &clean)], "remove_file", why).is_empty());
    let evicting =
        format!("{sites}fn evict(s: &S) {{\n    let _ = s.backend.remove_file(&old);\n}}\n{tests}");
    assert_eq!(row_hits(&[(disk, &evicting)], "remove_file", why), [disk]);
}

#[test]
fn every_skip_entry_of_an_architecture_rule_is_honoured() {
    for rule in RULES {
        // The row's first token, as often as a clean scope may hold it: a
        // retired token fires once in scope, a count holds at its count.
        let (token, scope, why, copies, fires) = match rule {
            Rule::Retired { tokens, scope, why } => (tokens[0], scope, *why, 1, true),
            Rule::Count { token, scope, n, at_least: false, why } => (*token, scope, *why, *n, false),
            Rule::Count { scope, why, .. } => {
                assert!(scope.skip.is_empty(), "a skip of an at-least count is untestable: {why}");
                continue;
            }
        };
        let covered = path_in(scope);
        let in_scope = format!("{}\n", vec![token; copies].join(" "));
        for skip in scope.skip {
            let skipped = path_skipped(scope, skip);
            assert!(
                scope.paths.iter().any(|p| skipped.starts_with(p)),
                "`{skip}` skips nothing in {:?}: {why}",
                scope.paths
            );
            // Were the skipped token read, a retired row would fire there
            // too and a count would be off by one (reported at `covered`).
            let hits = row_hits(
                &[(&covered, &in_scope), (&skipped, &format!("{token}\n"))],
                token,
                why,
            );
            let expected = if fires { vec![covered.clone()] } else { Vec::new() };
            assert_eq!(hits, expected, "`{token}` in {skipped} must be skipped: {why}");
        }
    }
}

#[test]
fn architecture_rules_read_production_code_and_take_no_waiver() {
    let (token, scope, why) = RULES
        .iter()
        .find_map(|rule| match rule {
            Rule::Retired { tokens, scope, why } if scope.production => Some((tokens[0], scope, *why)),
            _ => None,
        })
        .expect("the table has a production-only retired row");
    let rel = path_in(scope);
    let seeded = |body: &str| row_fires(&rel, body, token, why);
    assert!(
        !seeded(&format!("// {token}\nconst S: &str = \"{token}\";\n")),
        "a comment or a string literal is not code"
    );
    let test_item = format!("#[cfg(test)]\nmod tests {{\n    fn f() {{ {token}; }}\n}}\n");
    assert!(!seeded(&test_item), "a production-only rule skips #[cfg(test)] items");
    assert!(
        seeded(&format!("{test_item}fn after() {{ {token}; }}\n")),
        "code after a #[cfg(test)] item is production code"
    );
    assert!(
        seeded(&format!("// lcr-analyze: allow(architecture): a reason of some length\n{token}\n")),
        "no waiver silences an architecture rule"
    );
}

#[test]
fn the_one_operator_rows_fire_in_every_path_and_spare_test_code() {
    // The table-driven test seeds only a scope's first path; these two rows
    // name more than one place, and poisson.rs keeps the triplet route as
    // its unit tests' reference.
    let seeds = [
        ("CooMatrix", "let coo = CooMatrix::with_capacity(8, 8, 24);"),
        ("negated", "let a = problem.system.a.negated();"),
    ];
    for (token, statement) in seeds {
        let (scope, why) = RULES
            .iter()
            .find_map(|rule| match rule {
                Rule::Retired { tokens, scope, why } if tokens.contains(&token) => {
                    Some((scope, *why))
                }
                _ => None,
            })
            .unwrap_or_else(|| panic!("the table retires `{token}`"));
        for path in scope.paths {
            let rel = path_in(&Scope { paths: std::slice::from_ref(path), ..*scope });
            let production = format!("fn build() {{\n    {statement}\n}}\n");
            assert!(row_fires(&rel, &production, token, why), "`{token}` in {rel} must fire: {why}");
            let test_item = format!("#[cfg(test)]\nmod tests {{\n    {production}}}\n");
            assert!(!row_fires(&rel, &test_item, token, why), "`{token}` in a test of {rel}: {why}");
        }
    }
}

#[test]
fn the_benchmark_adapter_rows_fire_on_a_fresh_use_outside_the_benchmark() {
    // The benchmark's exhaustive literal and the library's own spellings of
    // the names it pins, at their real paths: a clean tree.
    let runner = "pub enum ExecutionBackend { Simulated }\n\
                  pub struct RunConfig { pub backend: ExecutionBackend }\n\
                  impl RunConfig {\n    \
                  pub fn baseline() -> Self {\n        \
                  RunConfig { backend: ExecutionBackend::Simulated }\n    }\n}\n";
    let clean: [(&str, &str); 4] = [
        ("crates/core/src/runner.rs", runner),
        ("crates/core/src/lib.rs", "pub use runner::{ExecutionBackend, RunConfig};\n"),
        (
            "crates/bench/src/bin/lcr_benchmark/series.rs",
            "fn run() {\n    let _ = RunConfig { backend: ExecutionBackend::Simulated };\n}\n",
        ),
        ("crates/ckpt/src/pfs.rs", "pub enum CheckpointLevel { Pfs }\n"),
    ];
    let seeds = [
        (
            "ExecutionBackend",
            "tests/fixture.rs",
            "#[test]\nfn t() {\n    let _ = ExecutionBackend::Simulated;\n}\n",
        ),
        (
            "RunConfig {",
            "examples/fixture.rs",
            "fn main() {\n    let _ = RunConfig { ..RunConfig::baseline() };\n}\n",
        ),
        (
            "CheckpointLevel",
            "crates/ckpt/src/store.rs",
            "pub struct CheckpointMetadata {\n    pub level: CheckpointLevel,\n}\n",
        ),
    ];
    for (token, rel, body) in seeds {
        let why = RULES
            .iter()
            .find_map(|rule| match rule {
                Rule::Retired { tokens, why, .. } if tokens.contains(&token) => Some(*why),
                Rule::Count { token: t, why, .. } if *t == token => Some(*why),
                _ => None,
            })
            .unwrap_or_else(|| panic!("the table has a row for `{token}`"));
        let fires = |files: &[(&str, &str)]| {
            let mut tree = vec![("Cargo.toml", WORKSPACE_MANIFEST)];
            tree.extend_from_slice(files);
            let fx = Fixture::new("adapter", &tree);
            let report = analyze_workspace(fx.root()).unwrap();
            report.diagnostics.iter().any(|d| {
                d.lint == "architecture"
                    && d.message.ends_with(&format!(": {why}"))
                    && (d.rel == rel || d.message.contains(&format!("{rel}:")))
            })
        };
        assert!(!fires(&clean), "the library's own spellings of `{token}` are clean: {why}");
        let mut seeded = clean.to_vec();
        seeded.push((rel, body));
        assert!(fires(&seeded), "`{token}` in {rel} must fire: {why}");
    }
}

#[test]
fn a_revived_delta_chain_fires_the_chain_rows_outside_the_benchmark() {
    // The library's own spellings of the chain adapters, and the
    // benchmark's use of them: a clean tree.
    let clean: [(&str, &str); 4] = [
        (
            "crates/compress/src/lib.rs",
            "pub enum DeltaMode { Order2 }
",
        ),
        (
            "crates/core/src/strategy.rs",
            "use lcr_compress::{DeltaMode};
             pub struct TemporalEncodingSelector;
             impl TemporalEncodingSelector {
    \
             pub fn new(_: usize, _: DeltaMode) -> Self { Self }
}
             fn encode_temporal_into(_: &mut TemporalEncodingSelector) {}
",
        ),
        ("crates/core/src/lib.rs", "pub use strategy::TemporalEncodingSelector;
"),
        (
            "crates/bench/src/bin/lcr_benchmark/traced.rs",
            "fn run() {
    let _ = TemporalEncodingSelector::new(8, DeltaMode::Order2);
}
",
        ),
    ];
    let diagnostics = |files: &[(&str, &str)]| -> Vec<String> {
        let mut tree = vec![("Cargo.toml", WORKSPACE_MANIFEST)];
        tree.extend_from_slice(files);
        let fx = Fixture::new("chains", &tree);
        let report = analyze_workspace(fx.root()).unwrap();
        report
            .diagnostics
            .iter()
            .filter(|d| {
                d.lint == "architecture"
                    && ["`TemporalEncodingSelector`", "`DeltaMode`"]
                        .iter()
                        .any(|token| d.message.contains(token))
            })
            .map(|d| d.message.clone())
            .collect()
    };
    assert_eq!(diagnostics(&clean), Vec::<String>::new());
    // A test that drives the selector again, and a store that walks chains.
    let mut seeded = clean.to_vec();
    seeded.push((
        "tests/fixture.rs",
        "#[test]
fn t() {
    let _ = TemporalEncodingSelector::new(4, DeltaMode::Order2);
}
",
    ));
    let fired = diagnostics(&seeded);
    assert!(fired.iter().any(|m| m.contains("`TemporalEncodingSelector` appears 5 times")), "{fired:?}");
    assert!(fired.iter().any(|m| m.contains("`DeltaMode` appears 4 times")), "{fired:?}");
    let revived = row_hits(
        &[("crates/ckpt/src/disk.rs", "fn latest_valid_chain(&mut self) {}\n")],
        "latest_valid_chain",
        "a delta chain is back: a checkpoint is one self-contained SZ stream",
    );
    assert_eq!(revived, ["crates/ckpt/src/disk.rs"]);
}
