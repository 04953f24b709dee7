//! Lint waivers: the one way to keep an item the `dead-public-item` lint
//! would flag.  An item that is public for a reason no caller shows
//! carries a comment naming the lint and the reason:
//!
//! ```text
//! // lcr-analyze: allow(dead-public-item): callers only name it through inference
//! ```
//!
//! Waivers require a justification and apply to the same line or the line
//! below; they are reported in the inventory so review can see every one.
//! No other lint reads waivers (the `architecture` rows take none), so a
//! waiver naming any other lint — or misspelling this one — fails the scan
//! instead of silencing nothing.

use crate::source::SourceFile;
use crate::Diagnostic;

/// The one lint that reads waivers.
const WAIVABLE: &str = "dead-public-item";

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

/// Collects `file`'s waivers and flags malformed ones: a waiver without a
/// reason, or one naming a lint other than `dead-public-item`.  Returns,
/// per line, whether a waiver covers it (a waiver covers its own line
/// and, when it sits on a comment-only line, the next line as well —
/// chains of comment-only lines extend downward to the first code line).
pub(crate) fn scan(
    file: &SourceFile,
    diags: &mut Vec<Diagnostic>,
    waivers: &mut Vec<Waiver>,
) -> Vec<bool> {
    let mut map = vec![false; file.lines.len()];
    for (idx, line) in file.lines.iter().enumerate() {
        // Waivers must be plain `//` comments: doc comments describe APIs
        // (and may quote the waiver syntax) but never waive anything.
        if line.doc {
            continue;
        }
        let Some((lint, reason)) = parse_waiver(&line.comment) else {
            continue;
        };
        let problem = if lint != WAIVABLE {
            Some(format!("waiver names `{lint}`, but only `{WAIVABLE}` reads waivers"))
        } else if reason.len() < 10 {
            Some(format!("waiver for `{lint}` must state a justification after the colon"))
        } else {
            None
        };
        if let Some(message) = problem {
            diags.push(Diagnostic {
                lint: "waiver-missing-reason",
                rel: file.rel.clone(),
                line: idx + 1,
                message,
            });
            continue;
        }
        waivers.push(Waiver { rel: file.rel.clone(), line: idx + 1, lint, reason });
        map[idx] = true;
        if line.is_comment_only() {
            // Extend to the first code line below the comment block.
            for (j, below) in file.lines.iter().enumerate().skip(idx + 1) {
                map[j] = true;
                if !below.is_comment_only() && !below.is_blank() {
                    break;
                }
            }
        }
    }
    map
}
