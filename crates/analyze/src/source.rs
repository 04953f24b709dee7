//! Lexical source model: splits a Rust source file into per-line *code*
//! and *comment* channels.
//!
//! The checks in this crate are lexical, not syntactic — they only need to
//! know (a) which tokens appear in executable code and (b) what the
//! comments next to them say.  This module provides exactly that split:
//!
//! * string and character literal *contents* are blanked out of the code
//!   channel (so `"unsafe"` in a test fixture never trips a lint), while
//!   the delimiting quotes stay in place so columns line up;
//! * line comments (`//`, `///`, `//!`) and block comments (`/* */`,
//!   nested) are removed from the code channel and accumulated, per line,
//!   in the comment channel;
//! * raw strings (`r"…"`, `r#"…"#`, byte/raw-byte variants) and escape
//!   sequences are handled so a quote inside a literal cannot desynchronise
//!   the lexer.
//!
//! Lifetimes (`'a`) are distinguished from character literals (`'a'`) with
//! the standard two-characters-ahead heuristic, which is exact for every
//! literal this workspace contains.

/// One physical source line, split into its code and comment channels.
#[derive(Debug, Default, Clone)]
// lcr-analyze: allow(dead-public-item): element type of the public `SourceFile::lines`; the lints read it by inference
pub struct Line {
    /// Source text with comments removed and literal contents blanked.
    pub code: String,
    /// Concatenated comment text appearing on this line (markers stripped).
    pub comment: String,
    /// Whether the comment text came from a doc comment (`///` or `//!`).
    /// Doc comments describe APIs — they never carry lint waivers, so
    /// documentation *quoting* the waiver syntax stays inert.
    pub doc: bool,
}

impl Line {
    /// Whether the line carries neither code nor comment text.
    pub fn is_blank(&self) -> bool {
        self.code.trim().is_empty() && self.comment.trim().is_empty()
    }

    /// Whether the line carries comment text but no code.
    pub fn is_comment_only(&self) -> bool {
        self.code.trim().is_empty() && !self.comment.trim().is_empty()
    }

    /// Whether the line is only an attribute (`#[…]` / `#![…]`), possibly
    /// with a trailing comment.
    pub fn is_attr_only(&self) -> bool {
        let t = self.code.trim();
        t.starts_with("#[") || t.starts_with("#![")
    }
}

/// A parsed source file: workspace-relative path plus the per-line split.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// The per-line code/comment split (0-indexed; diagnostics are
    /// 1-indexed).
    pub lines: Vec<Line>,
}

#[derive(Clone, Copy, PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Splits `text` into per-line code and comment channels.
pub fn split_lines(text: &str) -> Vec<Line> {
    let bytes: Vec<char> = text.chars().collect();
    let mut lines = Vec::new();
    let mut cur = Line::default();
    let mut state = State::Code;
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if c == '\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            lines.push(std::mem::take(&mut cur));
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = bytes.get(i + 1).copied();
                match c {
                    '/' if next == Some('/') => {
                        state = State::LineComment;
                        i += 2;
                        // Skip doc markers so the channel holds plain text.
                        while matches!(bytes.get(i), Some('/') | Some('!')) {
                            cur.doc = true;
                            i += 1;
                        }
                        continue;
                    }
                    '/' if next == Some('*') => {
                        state = State::BlockComment(1);
                        i += 2;
                        while matches!(bytes.get(i), Some('*') | Some('!')) {
                            i += 1;
                        }
                        continue;
                    }
                    '"' => {
                        cur.code.push('"');
                        state = State::Str;
                        i += 1;
                        continue;
                    }
                    'r' | 'b' => {
                        // Possible raw / byte string prefix: r", r#", br#", b".
                        let mut j = i + 1;
                        if c == 'b' && bytes.get(j) == Some(&'r') {
                            j += 1;
                        }
                        let mut hashes = 0u32;
                        while bytes.get(j) == Some(&'#') {
                            hashes += 1;
                            j += 1;
                        }
                        let is_raw = (c == 'r' || bytes.get(i + 1) == Some(&'r'))
                            && bytes.get(j) == Some(&'"');
                        let is_byte_str =
                            c == 'b' && hashes == 0 && bytes.get(i + 1) == Some(&'"');
                        // Only treat as a literal prefix when not part of a
                        // longer identifier (`for` ends in 'r', `rb` vars…).
                        let prev_ident = i > 0 && is_ident_char(bytes[i - 1]);
                        if !prev_ident && is_raw {
                            for &b in &bytes[i..=j] {
                                cur.code.push(b);
                            }
                            state = State::RawStr(hashes);
                            i = j + 1;
                            continue;
                        }
                        if !prev_ident && is_byte_str {
                            cur.code.push('b');
                            cur.code.push('"');
                            state = State::Str;
                            i += 2;
                            continue;
                        }
                        cur.code.push(c);
                        i += 1;
                        continue;
                    }
                    '\'' => {
                        // Char literal iff it closes within two chars
                        // (`'x'`) or starts with an escape; else lifetime.
                        let is_char = matches!(
                            (bytes.get(i + 1), bytes.get(i + 2)),
                            (Some('\\'), _) | (Some(_), Some('\''))
                        );
                        cur.code.push('\'');
                        i += 1;
                        if is_char {
                            state = State::Char;
                        }
                        continue;
                    }
                    _ => {
                        cur.code.push(c);
                        i += 1;
                        continue;
                    }
                }
            }
            State::LineComment => {
                cur.comment.push(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = bytes.get(i + 1).copied();
                if c == '*' && next == Some('/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    cur.comment.push(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    cur.code.push(' ');
                    if bytes.get(i + 1).is_some_and(|&n| n != '\n') {
                        cur.code.push(' ');
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    cur.code.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut ok = true;
                    for k in 0..hashes as usize {
                        if bytes.get(i + 1 + k) != Some(&'#') {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        cur.code.push('"');
                        for _ in 0..hashes {
                            cur.code.push('#');
                        }
                        state = State::Code;
                        i += 1 + hashes as usize;
                        continue;
                    }
                }
                cur.code.push(' ');
                i += 1;
            }
            State::Char => {
                if c == '\\' && bytes.get(i + 1).is_some_and(|&n| n != '\n') {
                    cur.code.push(' ');
                    cur.code.push(' ');
                    i += 2;
                } else if c == '\'' {
                    cur.code.push('\'');
                    state = State::Code;
                    i += 1;
                } else {
                    cur.code.push(' ');
                    i += 1;
                }
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Whether `needle` occurs in `haystack` as a standalone token — i.e. not
/// embedded in a longer identifier on either side.  `needle` itself may
/// contain `::` path separators.
pub fn contains_token(haystack: &str, needle: &str) -> bool {
    find_token(haystack, needle).is_some()
}

/// Byte offset of the first standalone occurrence of `needle`.
pub fn find_token(haystack: &str, needle: &str) -> Option<usize> {
    let h = haystack.as_bytes();
    let mut from = 0usize;
    while let Some(pos) = haystack[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let left_ok = start == 0 || !is_ident_char(h[start - 1] as char);
        let right_ok = end == h.len() || !is_ident_char(h[end] as char);
        if left_ok && right_ok {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

/// Marks lines that sit inside `#[cfg(test)]`-gated items so lints that
/// only govern production code can skip them.  Returns one flag per line.
///
/// The walk is lexical: after a `#[cfg(test)]` attribute, everything up to
/// the end of the next item — the matching `}` of the first brace opened,
/// or the first `;` if no brace opens — is marked as test code.  Nested
/// braces are counted on the stripped code channel, so braces in strings
/// and comments cannot desynchronise it.
pub fn cfg_test_mask(lines: &[Line]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        if contains_cfg_test(&lines[i].code) {
            let mut depth = 0i64;
            let mut opened = false;
            let mut j = i;
            while j < lines.len() {
                mask[j] = true;
                for ch in lines[j].code.chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        ';' if !opened && depth == 0 => {
                            // Braceless item (e.g. `#[cfg(test)] use …;`).
                            depth = i64::MIN;
                        }
                        _ => {}
                    }
                    if (opened && depth == 0) || depth == i64::MIN {
                        break;
                    }
                }
                if (opened && depth == 0) || depth == i64::MIN {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

fn contains_cfg_test(code: &str) -> bool {
    let squashed: String = code.chars().filter(|c| !c.is_whitespace()).collect();
    squashed.contains("#[cfg(test)]") || squashed.contains("#[cfg(all(test")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_blanked_comments_extracted() {
        let lines = split_lines("let s = \"unsafe { }\"; // SAFETY: not really\n");
        assert_eq!(lines.len(), 1);
        assert!(!contains_token(&lines[0].code, "unsafe"));
        assert!(lines[0].comment.contains("SAFETY: not really"));
    }

    #[test]
    fn raw_strings_and_escapes() {
        let src = "let a = r#\"unsafe \" quote\"#; let b = \"esc \\\" q\";\nlet c = 1;\n";
        let lines = split_lines(src);
        assert_eq!(lines.len(), 2);
        assert!(!contains_token(&lines[0].code, "unsafe"));
        assert!(contains_token(&lines[1].code, "c"));
    }

    #[test]
    fn char_literals_vs_lifetimes() {
        let lines = split_lines("fn f<'a>(x: &'a str) -> char { '}' }\n");
        // The `}` inside the char literal must be blanked; the real braces
        // must survive.
        let opens = lines[0].code.matches('{').count();
        let closes = lines[0].code.matches('}').count();
        assert_eq!(opens, 1);
        assert_eq!(closes, 1);
    }

    #[test]
    fn block_comments_nest() {
        let lines = split_lines("a /* one /* two */ still */ b\n");
        assert!(contains_token(&lines[0].code, "a"));
        assert!(contains_token(&lines[0].code, "b"));
        assert!(!contains_token(&lines[0].code, "two"));
        assert!(lines[0].comment.contains("two"));
    }

    #[test]
    fn token_boundaries() {
        assert!(contains_token("unsafe {", "unsafe"));
        assert!(!contains_token("unsafe_code", "unsafe"));
        assert!(!contains_token("find_unsafe", "unsafe"));
        assert!(contains_token("std::thread::spawn(f)", "thread::spawn"));
        assert!(!contains_token("my_thread::spawner", "thread::spawn"));
    }

    #[test]
    fn cfg_test_mask_covers_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n  fn b() { if x { y } }\n}\nfn c() {}\n";
        let lines = split_lines(src);
        let mask = cfg_test_mask(&lines);
        assert_eq!(mask, vec![false, true, true, true, true, false]);
    }
}
