//! Seeded-violation tests: build a throwaway fake workspace on disk with
//! one deliberate violation per lint class — and, generated from the
//! `architecture` table, one per row — and assert `lcr-analyze` flags
//! each: the analyzer's false-negative gate.  (All fixture source lives
//! in string literals or comes from the table at run time, so this file
//! does not trip the live-tree scan.)

use lcr_analyze::analyze_workspace;
use lcr_analyze::architecture::{Rule, Scope, RULES};
use std::path::{Path, PathBuf};

struct Fixture {
    root: PathBuf,
}

impl Fixture {
    fn new(tag: &str, files: &[(&str, &str)]) -> Fixture {
        let root = std::env::temp_dir().join(format!(
            "lcr-analyze-{tag}-{}",
            std::process::id()
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
fn dangerous_tokens_outside_allowlist_are_flagged() {
    let manifest = package_manifest("other");
    let fx = Fixture::new(
        "danger",
        &[
            ("Cargo.toml", WORKSPACE_MANIFEST),
            ("crates/other/Cargo.toml", &manifest),
            (
                "crates/other/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn bits(x: f64) -> u64 {\n    \
                 std::mem::transmute(x)\n}\n",
            ),
        ],
    );
    let report = analyze_workspace(fx.root()).unwrap();
    let lints = lints_for(&report, "crates/other/src/lib.rs");
    assert!(
        lints.contains(&("unsafe-outside-allowlist", 3)),
        "transmute outside the allowlist must be flagged, got {lints:?}"
    );
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
fn thread_spawn_outside_allowlist_is_flagged() {
    let manifest = package_manifest("other");
    let fx = Fixture::new(
        "spawn",
        &[
            ("Cargo.toml", WORKSPACE_MANIFEST),
            ("crates/other/Cargo.toml", &manifest),
            (
                "crates/other/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn go() {\n    \
                 std::thread::spawn(|| {});\n}\n",
            ),
        ],
    );
    let report = analyze_workspace(fx.root()).unwrap();
    let lints = lints_for(&report, "crates/other/src/lib.rs");
    assert!(
        lints.contains(&("thread-spawn", 3)),
        "raw thread spawn must be flagged, got {lints:?}"
    );
}

#[test]
fn kernel_crate_determinism_rules_fire_and_waivers_silence_them() {
    let manifest = package_manifest("fake-sparse");
    let fx = Fixture::new(
        "kernel",
        &[
            ("Cargo.toml", WORKSPACE_MANIFEST),
            ("crates/sparse/Cargo.toml", &manifest),
            (
                "crates/sparse/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 use std::collections::HashMap;\n\
                 use std::sync::atomic::{AtomicU64, Ordering};\n\
                 pub fn bad(m: &HashMap<u32, u64>, a: &AtomicU64) -> u64 {\n    \
                 let t = std::time::Instant::now();\n    \
                 a.fetch_add(1, Ordering::Relaxed);\n    \
                 let _ = t.elapsed();\n    \
                 m.len() as u64\n}\n\
                 // lcr-analyze: allow(hash-collection): fixture waiver with a real reason\n\
                 pub fn waived(m: &HashMap<u32, u64>) -> usize { m.len() }\n",
            ),
        ],
    );
    let report = analyze_workspace(fx.root()).unwrap();
    let lints = lints_for(&report, "crates/sparse/src/lib.rs");
    assert!(
        lints.iter().any(|&(l, n)| l == "hash-collection" && n <= 4),
        "HashMap in a kernel crate must be flagged, got {lints:?}"
    );
    assert!(
        lints.contains(&("wall-clock", 5)),
        "Instant::now in a kernel crate must be flagged, got {lints:?}"
    );
    assert!(
        lints.contains(&("atomic-reduction", 6)),
        "fetch_add in a kernel crate must be flagged, got {lints:?}"
    );
    assert!(
        !lints.iter().any(|&(l, n)| l == "hash-collection" && n >= 10),
        "the waived HashMap line must not be flagged, got {lints:?}"
    );
    assert_eq!(report.waivers.len(), 1, "the waiver must be recorded");
}

#[test]
fn waiver_without_reason_is_itself_a_violation() {
    let manifest = package_manifest("fake-sparse");
    let fx = Fixture::new(
        "waiver",
        &[
            ("Cargo.toml", WORKSPACE_MANIFEST),
            ("crates/sparse/Cargo.toml", &manifest),
            (
                "crates/sparse/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 use std::collections::HashMap;\n\
                 // lcr-analyze: allow(hash-collection):\n\
                 pub fn f(m: &HashMap<u32, u64>) -> usize { m.len() }\n",
            ),
        ],
    );
    let report = analyze_workspace(fx.root()).unwrap();
    let lints = lints_for(&report, "crates/sparse/src/lib.rs");
    assert!(
        lints.contains(&("waiver-missing-reason", 3)),
        "a reason-less waiver must be flagged, got {lints:?}"
    );
    assert!(
        lints.contains(&("hash-collection", 4)),
        "a reason-less waiver must not silence the lint, got {lints:?}"
    );
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
                 const DOC: &str = \"std::thread::spawn and HashMap here\";\n\
                 #[cfg(test)]\n\
                 mod tests {\n    \
                 #[test]\n    \
                 fn timing() {\n        \
                 let _ = std::time::Instant::now();\n    \
                 }\n\
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

/// Whether the architecture row naming `token` and `why` fires on a
/// workspace holding only `body` at `rel`.
fn row_fires(rel: &str, body: &str, token: &str, why: &str) -> bool {
    let fx = Fixture::new("architecture", &[("Cargo.toml", WORKSPACE_MANIFEST), (rel, body)]);
    let report = analyze_workspace(fx.root()).unwrap();
    report.diagnostics.iter().any(|d| {
        d.lint == "architecture"
            && d.message.contains(&format!("`{token}`"))
            && d.message.ends_with(&format!(": {why}"))
    })
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
