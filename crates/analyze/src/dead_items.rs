//! Dead-public-item lint: keeps the public surface of the `crates/*`
//! libraries and of the `shims/*` stand-ins down to what something
//! actually uses.
//!
//! `dead-public-item` flags a `pub fn|struct|enum|trait|const|mod`
//! declared in a library source file (`crates/*/src` and `shims/*/src`,
//! binaries and `#[cfg(test)]` code excluded) whose name appears in the
//! code of **no other file** of the workspace — tests, examples, benches,
//! shims and the stand-alone `lcr_benchmark` package all count as users.
//! `pub use` re-exports do not: a re-export forwards a name, it does not
//! use it.
//! rustc's own `dead_code` lint stops at `pub`; this one is the workspace-
//! wide complement, lexical like the rest of the crate (a name shared with
//! an unrelated live item is not flagged — the lint errs towards silence).
//!
//! An item that is public for a reason no caller shows carries a waiver
//! comment (see `waiver`) directly above its `pub` line; this is the only
//! lint that reads one.

use crate::source::{cfg_test_mask, is_ident_char, SourceFile};
use crate::Diagnostic;
use std::collections::BTreeSet;

/// Item keywords the lint covers, as they follow `pub `.
const ITEM_KEYWORDS: &[&str] = &["fn", "struct", "enum", "trait", "const", "mod"];

/// Qualifiers that may sit between `pub` and `fn`.
const FN_QUALIFIERS: &[&str] = &["const", "unsafe", "async"];

/// Whether `rel` is a library source file the lint governs.
fn is_library_source(rel: &str) -> bool {
    (rel.starts_with("crates/") || rel.starts_with("shims/"))
        && rel.contains("/src/")
        && !rel.contains("/src/bin/")
}

/// The name a `pub` item line declares, if it declares one the lint
/// covers (`pub(crate)` and friends never match: `pub` must be followed
/// by whitespace).
fn declared_name(code: &str) -> Option<(&'static str, &str)> {
    let rest = code.trim_start().strip_prefix("pub")?;
    if !rest.starts_with(char::is_whitespace) {
        return None;
    }
    let mut words = rest.split_whitespace().peekable();
    let mut keyword = words.next()?;
    // `pub const fn`, `pub unsafe fn`, `pub const unsafe fn`, `pub async fn`.
    while FN_QUALIFIERS.contains(&keyword)
        && words
            .peek()
            .is_some_and(|w| *w == "fn" || FN_QUALIFIERS.contains(w))
    {
        keyword = words.next()?;
    }
    let keyword = ITEM_KEYWORDS.iter().find(|k| **k == keyword)?;
    let name: &str = words.next()?;
    let end = name.find(|c| !is_ident_char(c)).unwrap_or(name.len());
    (end > 0).then(|| (*keyword, &name[..end]))
}

/// Every identifier in the file's code channel, `pub use` statements
/// excluded.
fn used_identifiers(file: &SourceFile) -> BTreeSet<&str> {
    let mut idents = BTreeSet::new();
    let mut in_reexport = false;
    for line in &file.lines {
        let code = line.code.as_str();
        if code.trim_start().starts_with("pub use ") {
            in_reexport = true;
        }
        if in_reexport {
            in_reexport = !code.contains(';');
            continue;
        }
        idents.extend(
            code.split(|c| !is_ident_char(c))
                .filter(|w| !w.is_empty() && !w.starts_with(|c: char| c.is_ascii_digit())),
        );
    }
    idents
}

/// Runs the lint over the whole tree.  `waived[i]` is the per-line waiver
/// map of `files[i]` (see `waiver::scan`).
pub fn lint_workspace(files: &[SourceFile], waived: &[Vec<bool>], diags: &mut Vec<Diagnostic>) {
    let used: Vec<BTreeSet<&str>> = files.iter().map(used_identifiers).collect();
    for (fi, file) in files.iter().enumerate() {
        if !is_library_source(&file.rel) {
            continue;
        }
        let test_mask = cfg_test_mask(&file.lines);
        for (idx, line) in file.lines.iter().enumerate() {
            if test_mask[idx] {
                continue;
            }
            let Some((keyword, name)) = declared_name(&line.code) else {
                continue;
            };
            let used_elsewhere = used
                .iter()
                .enumerate()
                .any(|(other, idents)| other != fi && idents.contains(name));
            if !used_elsewhere && !waived[fi][idx] {
                diags.push(Diagnostic {
                    lint: "dead-public-item",
                    rel: file.rel.clone(),
                    line: idx + 1,
                    message: format!(
                        "`pub {keyword} {name}` is named in no other file of the workspace; \
                         delete it, narrow its visibility, or waive it with a reason"
                    ),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names() {
        assert_eq!(
            declared_name("pub fn norm1(&self) -> f64 {"),
            Some(("fn", "norm1"))
        );
        assert_eq!(
            declared_name("    pub const fn table() -> [u32; 256] {"),
            Some(("fn", "table"))
        );
        assert_eq!(declared_name("pub const unsafe fn f()"), Some(("fn", "f")));
        assert_eq!(
            declared_name("pub const MAGIC: [u8; 8] = x;"),
            Some(("const", "MAGIC"))
        );
        assert_eq!(
            declared_name("pub struct Foo<T> {"),
            Some(("struct", "Foo"))
        );
        assert_eq!(declared_name("pub mod disk;"), Some(("mod", "disk")));
        assert_eq!(declared_name("pub(crate) fn hidden()"), None);
        assert_eq!(declared_name("pub use foo::Bar;"), None);
        assert_eq!(declared_name("pub field: usize,"), None);
        assert_eq!(declared_name("fn private()"), None);
    }
}
