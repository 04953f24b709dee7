//! The live-tree gate: scanning this workspace must come back clean, and
//! the committed `UNSAFE.md` inventory must match a fresh render.  This is
//! what makes `cargo test` enforce the static-analysis invariants without
//! a separate CI step.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/analyze/../.. — the workspace root this crate lives in.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    assert!(
        root.join("Cargo.toml").exists(),
        "workspace root not found at {}",
        root.display()
    );
    root
}

#[test]
fn live_tree_scans_clean() {
    let report = lcr_analyze::analyze_workspace(&workspace_root()).unwrap();
    assert!(
        report.diagnostics.is_empty(),
        "the tree must scan clean; violations:\n{}",
        report
            .diagnostics
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(report.files_scanned > 50, "scan looks truncated");
    assert!(
        !report.unsafe_sites.is_empty(),
        "the tree has known unsafe sites; zero means the scan is broken"
    );
}

#[test]
fn unsafe_inventory_is_current() {
    let root = workspace_root();
    let report = lcr_analyze::analyze_workspace(&root).unwrap();
    let rendered = lcr_analyze::render_unsafe_md(&report);
    let committed = std::fs::read_to_string(root.join("UNSAFE.md"))
        .expect("UNSAFE.md must exist — generate with `cargo run -p lcr-analyze -- --write-unsafe-md`");
    assert_eq!(
        committed, rendered,
        "UNSAFE.md is stale — regenerate with `cargo run -p lcr-analyze -- --write-unsafe-md`"
    );
}

/// The library crates hold no serializer: `lcr_bench::ToJson` writes every
/// bin's `JSON` line, and the `serde_json` shim only parses.  So no manifest
/// under `crates/` but `lcr-bench`'s (whose `lcr_benchmark` bin reads JSON)
/// names a serde crate, and the `serde` / `serde_derive` shims stay deleted;
/// without them no source can name serde and still build.
#[test]
fn library_crates_hold_no_serializer() {
    let root = workspace_root();
    let mut found = Vec::new();
    for entry in std::fs::read_dir(root.join("crates")).unwrap() {
        let manifest = entry.unwrap().path().join("Cargo.toml");
        let text = std::fs::read_to_string(&manifest).unwrap_or_default();
        if !manifest.starts_with(root.join("crates/bench"))
            && text.lines().any(|l| l.trim_start().starts_with("serde"))
        {
            found.push(manifest.strip_prefix(&root).unwrap().display().to_string());
        }
    }
    assert!(found.is_empty(), "serde is a dependency of {found:?}");
    assert!(!root.join("shims/serde").exists() && !root.join("shims/serde_derive").exists());
}
