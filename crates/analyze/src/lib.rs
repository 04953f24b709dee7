//! # lcr-analyze
//!
//! In-tree static analysis for the lossy-checkpointing workspace: the
//! machine-checked form of the invariants PRs 2 and 5 established by
//! convention.
//!
//! The workspace's core correctness claim — bit-identical results at any
//! `LCR_NUM_THREADS` — rests on two conventions: every parallel reduction
//! combines fixed-chunk partials in chunk order, and every pool task
//! writes only through the `&mut` pieces it owns, so the `unsafe` that
//! remains (unchecked gathers, the pool's lifetime erasure) stays small
//! and justified.  This crate enforces the statically checkable half of
//! that contract (the `racecheck` feature of the pool, `shims/rayon`, and
//! `lcr-sparse` checks the index arithmetic the types cannot):
//!
//! * **unsafe audit** (`unsafe_audit`) — every `unsafe` site carries an
//!   adjacent `// SAFETY:` justification, raw-memory APIs stay inside the
//!   allowlisted crates, unsafe-free crates pin `#![forbid(unsafe_code)]`,
//!   and unsafe-using crates compile under
//!   `#![deny(unsafe_op_in_unsafe_fn)]`.
//! * **determinism lints** (`determinism`) — no raw thread spawning
//!   outside the pool and the `DiskStore` write-behind, no hash-ordered
//!   collections, wall-clock reads or atomic-RMW accumulation in the
//!   kernel crates.
//! * **dead public items** (`dead_items`) — no `pub` item in the library
//!   crates that no other file of the workspace names.
//! * **architecture** ([`architecture`]) — a table of structural
//!   invariants: a retired name stays gone from its scope, and a token
//!   meant to appear once (one definition, one call site) does.  Rules take
//!   no waiver; changing one means editing its row.
//! * **inventory** ([`render_unsafe_md`]) — a generated `UNSAFE.md` listing
//!   every remaining unsafe site with its justification, plus every lint
//!   waiver, so the whole unsafe surface is reviewable in one page.
//!
//! Run it as `cargo run -p lcr-analyze` (nonzero exit on any violation) or
//! let the test suite run it: the root package's `tests/workspace_clean.rs`
//! scans the live tree under a plain `cargo test`, and
//! `crates/analyze/tests/seeded_violations.rs` proves every lint fires.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod architecture;
mod dead_items;
mod determinism;
pub mod source;
mod unsafe_audit;
pub mod workspace;

pub use determinism::Waiver;
pub use unsafe_audit::UnsafeSite;

use std::io;
use std::path::Path;

/// One lint finding, pointing at a workspace-relative line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable lint identifier (e.g. `undocumented-unsafe`).
    pub lint: &'static str,
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel, self.line, self.lint, self.message
        )
    }
}

/// The result of one full workspace scan.
#[derive(Debug)]
pub struct Report {
    /// Every violation found, sorted by path and line.
    pub diagnostics: Vec<Diagnostic>,
    /// Every `unsafe` site in the tree (documented or not).
    pub unsafe_sites: Vec<UnsafeSite>,
    /// Every lint waiver in force.
    pub waivers: Vec<Waiver>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

/// Scans the workspace rooted at `root` and returns the full report.
///
/// # Errors
/// Propagates I/O errors from reading the tree.
pub fn analyze_workspace(root: &Path) -> io::Result<Report> {
    let files = workspace::collect_sources(root)?;
    let crates = workspace::collect_crates(root)?;
    let mut diagnostics = Vec::new();
    let mut unsafe_sites = Vec::new();
    let mut waivers = Vec::new();
    let mut waived = Vec::with_capacity(files.len());
    for file in &files {
        unsafe_audit::audit_file(file, &mut diagnostics, &mut unsafe_sites);
        waived.push(determinism::lint_file(file, &mut diagnostics, &mut waivers));
    }
    dead_items::lint_workspace(&files, &waived, &mut diagnostics);
    unsafe_audit::audit_dangerous_tokens(&files, &mut diagnostics);
    architecture::check(&files, &mut diagnostics);
    for krate in &crates {
        unsafe_audit::audit_crate(krate, &files, &mut diagnostics);
    }
    diagnostics.sort_by(|a, b| (&a.rel, a.line, a.lint).cmp(&(&b.rel, b.line, b.lint)));
    Ok(Report {
        diagnostics,
        unsafe_sites,
        waivers,
        files_scanned: files.len(),
    })
}

/// Renders the `UNSAFE.md` inventory: every unsafe site with its
/// justification, then every lint waiver.  Deterministic output so
/// the committed file can be diffed against a fresh render.
pub fn render_unsafe_md(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("# Unsafe inventory\n\n");
    out.push_str(
        "Generated by `cargo run -p lcr-analyze -- --write-unsafe-md` — do not edit by\n\
         hand.  Every `unsafe` site in the workspace, with the SAFETY justification the\n\
         `lcr-analyze` audit requires, followed by every lint waiver in\n\
         force.\n\n",
    );
    out.push_str(&format!(
        "**{} unsafe sites** across the tree; **{} waivers**.\n\n",
        report.unsafe_sites.len(),
        report.waivers.len()
    ));
    out.push_str("## Unsafe sites\n\n");
    let mut current_file = "";
    for site in &report.unsafe_sites {
        if site.rel != current_file {
            current_file = &site.rel;
            out.push_str(&format!("### `{}`\n\n", site.rel));
        }
        let justification = site
            .justification
            .as_deref()
            .unwrap_or("**UNDOCUMENTED** (audit failure)");
        out.push_str(&format!(
            "- line {} (`{}`): `{}`\n  - {}\n",
            site.line,
            site.kind,
            truncate(&site.snippet, 90),
            justification
        ));
    }
    out.push_str("\n## Lint waivers\n\n");
    if report.waivers.is_empty() {
        out.push_str("None.\n");
    } else {
        for w in &report.waivers {
            out.push_str(&format!(
                "- `{}:{}` waives `{}`: {}\n",
                w.rel, w.line, w.lint, w.reason
            ));
        }
    }
    out
}

fn truncate(s: &str, max: usize) -> String {
    if s.chars().count() <= max {
        s.to_string()
    } else {
        let head: String = s.chars().take(max).collect();
        format!("{head}…")
    }
}
