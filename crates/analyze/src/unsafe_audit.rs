//! The unsafe audit: every `unsafe` site must justify itself.
//!
//! Two rules, mirroring the workspace's safety conventions (where the
//! raw-memory APIs may appear at all is a row of the `architecture` table):
//!
//! 1. **Documented unsafe** — every `unsafe` keyword in code must carry an
//!    adjacent justification: a `// SAFETY:` comment on the same line or in
//!    the contiguous comment/attribute block directly above, or (for
//!    `unsafe fn`/`unsafe trait` declarations) a `# Safety` section in the
//!    doc comment block above.
//! 2. **Crate-root attributes** — crates whose sources contain no `unsafe`
//!    must pin that with `#![forbid(unsafe_code)]`; crates that do use
//!    `unsafe` must compile under `#![deny(unsafe_op_in_unsafe_fn)]` so
//!    every unsafe operation sits in an explicit, commentable block.

use crate::source::{contains_token, find_token, SourceFile};
use crate::workspace::CrateInfo;
use crate::Diagnostic;

/// One audited `unsafe` occurrence, for the `UNSAFE.md` inventory.
#[derive(Debug, Clone)]
pub struct UnsafeSite {
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line number.
    pub line: usize,
    /// Site kind: `impl`, `fn`, `trait` or `block`.
    pub kind: &'static str,
    /// The code line, trimmed.
    pub snippet: String,
    /// The adjacent SAFETY / `# Safety` justification, if present.
    pub justification: Option<String>,
}

/// Scans one file for `unsafe` sites, reporting undocumented ones into
/// `diags` and every site into `sites`.
pub fn audit_file(file: &SourceFile, diags: &mut Vec<Diagnostic>, sites: &mut Vec<UnsafeSite>) {
    for (idx, line) in file.lines.iter().enumerate() {
        let Some(pos) = find_token(&line.code, "unsafe") else {
            continue;
        };
        let kind = classify(&line.code[pos + "unsafe".len()..]);
        let justification = adjacent_justification(file, idx, kind);
        if justification.is_none() {
            diags.push(Diagnostic {
                lint: "undocumented-unsafe",
                rel: file.rel.clone(),
                line: idx + 1,
                message: format!(
                    "`unsafe` {kind} has no adjacent `// SAFETY:` comment{}",
                    if kind == "fn" || kind == "trait" {
                        " (or `# Safety` doc section)"
                    } else {
                        ""
                    }
                ),
            });
        }
        sites.push(UnsafeSite {
            rel: file.rel.clone(),
            line: idx + 1,
            kind,
            snippet: line.code.trim().to_string(),
            justification,
        });
        // A second `unsafe` on the same line (e.g. paired Send/Sync impls
        // squeezed together) would share the first's justification; the
        // workspace style keeps one per line, so auditing the first is
        // enough — but flag the style itself.
        if find_token(&line.code[pos + "unsafe".len()..], "unsafe").is_some() {
            diags.push(Diagnostic {
                lint: "undocumented-unsafe",
                rel: file.rel.clone(),
                line: idx + 1,
                message: "multiple `unsafe` sites on one line — split them so each \
                          carries its own SAFETY comment"
                    .to_string(),
            });
        }
    }
}

fn classify(after: &str) -> &'static str {
    let t = after.trim_start();
    if t.starts_with("impl") {
        "impl"
    } else if t.starts_with("fn") || t.starts_with("extern") {
        "fn"
    } else if t.starts_with("trait") {
        "trait"
    } else {
        "block"
    }
}

/// Looks for the justification adjacent to line `idx`: a `SAFETY:` marker
/// in the same line's comment, or in the contiguous block of comment-only /
/// attribute-only lines directly above (doc `# Safety` headings count for
/// declarations).
fn adjacent_justification(file: &SourceFile, idx: usize, kind: &'static str) -> Option<String> {
    let accepts_doc = kind == "fn" || kind == "trait";
    let own = &file.lines[idx].comment;
    if own.contains("SAFETY:") {
        return Some(own.trim().to_string());
    }
    let mut collected: Vec<&str> = Vec::new();
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let line = &file.lines[j];
        if line.is_comment_only() || line.is_attr_only() {
            if !line.comment.trim().is_empty() {
                collected.push(line.comment.trim());
            }
            continue;
        }
        break;
    }
    // `collected` is bottom-up; a SAFETY marker anywhere in the block
    // counts, and the justification is the marker line plus what follows
    // it (i.e. precedes it in bottom-up order).
    let has_safety = collected.iter().any(|c| c.contains("SAFETY:"));
    let has_doc_safety = accepts_doc && collected.iter().any(|c| c.trim() == "# Safety");
    if has_safety || has_doc_safety {
        let mut text: Vec<&str> = Vec::new();
        for c in collected.iter().rev() {
            if text.is_empty() && !(c.contains("SAFETY:") || c.trim() == "# Safety") {
                continue;
            }
            text.push(c);
        }
        return Some(text.join(" "));
    }
    None
}

/// Per-crate attribute checks.
pub fn audit_crate(krate: &CrateInfo, files: &[SourceFile], diags: &mut Vec<Diagnostic>) {
    let crate_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| f.rel.starts_with(&krate.src_prefix) || f.rel == krate.root_rel)
        .collect();
    let uses_unsafe = crate_files.iter().any(|f| {
        f.lines
            .iter()
            .any(|l| contains_token(&l.code, "unsafe"))
    });
    let root = files.iter().find(|f| f.rel == krate.root_rel);
    let Some(root) = root else {
        diags.push(Diagnostic {
            lint: "missing-forbid-unsafe",
            rel: krate.root_rel.clone(),
            line: 1,
            message: format!("crate `{}` has no readable root file", krate.name),
        });
        return;
    };
    let has_attr = |needle: &str| {
        root.lines.iter().any(|l| {
            let squashed: String = l.code.chars().filter(|c| !c.is_whitespace()).collect();
            squashed.contains(needle)
        })
    };
    if uses_unsafe {
        if !has_attr("#![deny(unsafe_op_in_unsafe_fn)]") {
            diags.push(Diagnostic {
                lint: "missing-deny-unsafe-op",
                rel: krate.root_rel.clone(),
                line: 1,
                message: format!(
                    "crate `{}` uses `unsafe` but its root does not declare \
                     `#![deny(unsafe_op_in_unsafe_fn)]`",
                    krate.name
                ),
            });
        }
    } else if !has_attr("#![forbid(unsafe_code)]") {
        diags.push(Diagnostic {
            lint: "missing-forbid-unsafe",
            rel: krate.root_rel.clone(),
            line: 1,
            message: format!(
                "crate `{}` is unsafe-free but its root does not declare \
                 `#![forbid(unsafe_code)]`",
                krate.name
            ),
        });
    }
}
