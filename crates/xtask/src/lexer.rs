//! A small Rust surface lexer: masks comments and literal contents out of
//! a source file (preserving byte offsets and line structure) so rule
//! matching never fires inside a string, and records comment text per line
//! so waiver annotations can be matched to the code they excuse.
//!
//! This is deliberately not a parser. It understands exactly as much Rust
//! as the lint rules need: line and (nested) block comments, string /
//! raw-string / byte-string / char literals, and the char-vs-lifetime
//! ambiguity of `'`. Everything else passes through untouched.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::RangeInclusive;

/// The comment text observed on one source line.
#[derive(Clone, Debug, Default)]
pub struct CommentLine {
    /// Concatenated comment text on this line (without `//` / `/*`).
    pub text: String,
    /// Whether the line holds only comment (and whitespace) — such lines
    /// chain waiver blocks upward; a comment trailing code does not.
    pub comment_only: bool,
}

/// Masked source: literals and comments blanked, plus per-line comments.
#[derive(Debug)]
pub struct Masked {
    /// Same length and line structure as the input; comment and literal
    /// interiors replaced with spaces.
    pub text: String,
    /// Comment text found on each (1-based) line.
    pub comments: BTreeMap<usize, CommentLine>,
    /// Byte offset of the start of each line (index 0 = line 1).
    line_starts: Vec<usize>,
}

#[derive(PartialEq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
    Char,
}

/// Lex `src` into its masked form.
pub fn mask(src: &str) -> Masked {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut comments: BTreeMap<usize, CommentLine> = BTreeMap::new();
    let mut line_starts = vec![0usize];
    let mut line = 1usize;
    let mut state = State::Code;
    let mut i = 0usize;

    // Push comment text for the current line.
    fn note(comments: &mut BTreeMap<usize, CommentLine>, line: usize, ch: char) {
        comments.entry(line).or_default().text.push(ch);
    }

    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    out.extend_from_slice(b"  ");
                    comments.entry(line).or_default();
                    i += 2;
                    continue;
                }
                if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    out.extend_from_slice(b"  ");
                    comments.entry(line).or_default();
                    i += 2;
                    continue;
                }
                if b == b'"' {
                    // Possibly (b)r#"..."# — look back over a raw prefix.
                    let mut hashes = 0usize;
                    let mut j = i;
                    while j > 0 && bytes[j - 1] == b'#' {
                        hashes += 1;
                        j -= 1;
                    }
                    let is_raw = j > 0
                        && (bytes[j - 1] == b'r'
                            && (j < 2 || !is_ident_byte(bytes[j - 2]) || bytes[j - 2] == b'b'));
                    state = if is_raw {
                        State::RawStr(hashes as u32)
                    } else {
                        State::Str
                    };
                    out.push(b'"');
                    i += 1;
                    continue;
                }
                if b == b'\'' {
                    // Char literal vs lifetime: a lifetime is `'ident` NOT
                    // followed by a closing quote; `'a'` and `'\n'` are
                    // chars.
                    let next = bytes.get(i + 1).copied();
                    let after = bytes.get(i + 2).copied();
                    let is_char = match next {
                        Some(b'\\') => true,
                        Some(n) if is_ident_byte(n) => after == Some(b'\''),
                        Some(_) => true, // e.g. '(' — punctuation char literal
                        None => false,
                    };
                    if is_char {
                        state = State::Char;
                    }
                    out.push(b'\'');
                    i += 1;
                    continue;
                }
                if b == b'\n' {
                    line += 1;
                    line_starts.push(i + 1);
                }
                out.push(b);
                i += 1;
            }
            State::LineComment => {
                if b == b'\n' {
                    finish_line(&mut comments, line, &out, &line_starts);
                    state = State::Code;
                    line += 1;
                    line_starts.push(i + 1);
                    out.push(b'\n');
                } else {
                    note(&mut comments, line, src[i..].chars().next().unwrap_or(' '));
                    let ch_len = utf8_len(b);
                    out.resize(out.len() + ch_len, b' ');
                    i += ch_len;
                    continue;
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        finish_line(&mut comments, line, &out, &line_starts);
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                if b == b'\n' {
                    finish_line(&mut comments, line, &out, &line_starts);
                    line += 1;
                    line_starts.push(i + 1);
                    comments.entry(line).or_default();
                    out.push(b'\n');
                    i += 1;
                } else {
                    note(&mut comments, line, src[i..].chars().next().unwrap_or(' '));
                    let ch_len = utf8_len(b);
                    out.resize(out.len() + ch_len, b' ');
                    i += ch_len;
                }
            }
            State::Str => {
                if b == b'\\' {
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                if b == b'"' {
                    state = State::Code;
                    out.push(b'"');
                } else if b == b'\n' {
                    line += 1;
                    line_starts.push(i + 1);
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            State::RawStr(hashes) => {
                if b == b'"' {
                    let h = hashes as usize;
                    if bytes[i + 1..].len() >= h
                        && bytes[i + 1..i + 1 + h].iter().all(|&c| c == b'#')
                    {
                        state = State::Code;
                        out.push(b'"');
                        out.resize(out.len() + h, b'#');
                        i += 1 + h;
                        continue;
                    }
                }
                if b == b'\n' {
                    line += 1;
                    line_starts.push(i + 1);
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            State::Char => {
                if b == b'\\' {
                    out.extend_from_slice(b"  ");
                    i += 2;
                    continue;
                }
                if b == b'\'' {
                    state = State::Code;
                    out.push(b'\'');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
        }
    }
    if matches!(state, State::LineComment | State::BlockComment(_)) {
        finish_line(&mut comments, line, &out, &line_starts);
    }

    Masked {
        // SAFETY-free conversion: `out` only ever receives ASCII
        // replacements or bytes copied from the input at char boundaries.
        text: String::from_utf8_lossy(&out).into_owned(),
        comments,
        line_starts,
    }
}

/// Mark whether `line` (just completed) was comment-only: everything the
/// masked text holds for it is whitespace.
fn finish_line(
    comments: &mut BTreeMap<usize, CommentLine>,
    line: usize,
    out: &[u8],
    line_starts: &[usize],
) {
    let start = line_starts[line - 1].min(out.len());
    let code = &out[start..];
    if let Some(c) = comments.get_mut(&line) {
        c.comment_only = code.iter().all(|&b| b == b' ' || b == b'\t' || b == b'\n');
    }
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn utf8_len(b: u8) -> usize {
    match b {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

impl Masked {
    /// 1-based line containing byte offset `idx`.
    pub fn line_of(&self, idx: usize) -> usize {
        match self.line_starts.binary_search(&idx) {
            Ok(l) => l + 1,
            Err(l) => l,
        }
    }

    /// Lines (1-based, deduplicated) on which `token` occurs in code.
    /// `unwrap`-style tokens match verbatim; identifier-shaped tokens are
    /// bounded so `sync` never matches `resync`.
    pub fn lines_with_token(&self, token: &str) -> Vec<usize> {
        self.lines_with_token_in(token, 1..=usize::MAX)
    }

    /// Like [`lines_with_token`](Self::lines_with_token), restricted to a
    /// line range.
    pub fn lines_with_token_in(&self, token: &str, lines: RangeInclusive<usize>) -> Vec<usize> {
        let mut out = Vec::new();
        let ident_bounded = token
            .chars()
            .next()
            .map(|c| c.is_alphanumeric() || c == '_')
            .unwrap_or(false);
        for (idx, _) in self.text.match_indices(token) {
            if ident_bounded {
                let before = self.text[..idx].bytes().next_back();
                if before.map(is_ident_byte).unwrap_or(false) {
                    continue;
                }
            }
            let after = self.text[idx + token.len()..].bytes().next();
            if ident_bounded
                && token
                    .bytes()
                    .next_back()
                    .map(is_ident_byte)
                    .unwrap_or(false)
                && after.map(is_ident_byte).unwrap_or(false)
            {
                continue;
            }
            let line = self.line_of(idx);
            if lines.contains(&line) && out.last() != Some(&line) {
                out.push(line);
            }
        }
        out
    }

    /// Line ranges of `#[cfg(test)]`-gated items (`mod tests { … }`,
    /// single functions): code the ordinary-build compiler never sees.
    pub fn test_region_lines(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for (idx, _) in self.text.match_indices("#[cfg(") {
            let open = idx + "#[cfg(".len() - 1;
            let Some(close) = self.matching(open, b'(', b')') else {
                continue;
            };
            let cfg = &self.text[open..=close];
            // `test` as a standalone token inside the cfg predicate; a
            // negated predicate (`#[cfg(not(test))]`) gates *production*
            // code, so it must not be skipped.
            let words: Vec<&str> = cfg
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .collect();
            let is_test = words.contains(&"test") && !words.contains(&"not");
            if !is_test {
                continue;
            }
            // The gated item's body: the next `{` before any `;` (a
            // `#[cfg(test)] use …;` has no body to skip).
            let rest = &self.text[close..];
            let brace = rest.find('{');
            let semi = rest.find(';');
            let Some(b) = brace else { continue };
            if matches!(semi, Some(s) if s < b) {
                continue;
            }
            let body_open = close + b;
            let Some(body_close) = self.matching(body_open, b'{', b'}') else {
                continue;
            };
            for l in self.line_of(idx)..=self.line_of(body_close) {
                out.insert(l);
            }
        }
        out
    }

    /// Line extents of functions annotated `// lint: hot-path`.
    pub fn hot_path_extents(&self) -> Vec<RangeInclusive<usize>> {
        let mut out = Vec::new();
        for (&line, comment) in &self.comments {
            if !comment.text.contains("lint: hot-path") {
                continue;
            }
            // The annotated function starts at the next `fn` token after
            // the annotation line; its extent is that fn's brace block.
            let Some(&start_idx) = self.line_starts.get(line) else {
                continue;
            };
            let rest = &self.text[start_idx..];
            let Some(fn_rel) = rest
                .match_indices("fn ")
                .map(|(i, _)| i)
                .find(|&i| i == 0 || !is_ident_byte(rest.as_bytes()[i - 1]))
            else {
                continue;
            };
            let Some(open_rel) = rest[fn_rel..].find('{') else {
                continue;
            };
            let open = start_idx + fn_rel + open_rel;
            let Some(close) = self.matching(open, b'{', b'}') else {
                continue;
            };
            out.push(self.line_of(start_idx + fn_rel)..=self.line_of(close));
        }
        out
    }

    /// Byte offset of the delimiter matching the one at `open`.
    fn matching(&self, open: usize, open_b: u8, close_b: u8) -> Option<usize> {
        let bytes = self.text.as_bytes();
        debug_assert_eq!(bytes[open], open_b);
        let mut depth = 0i64;
        for (i, &b) in bytes.iter().enumerate().skip(open) {
            if b == open_b {
                depth += 1;
            } else if b == close_b {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_comments_and_strings_but_keeps_structure() {
        let src = "let a = \"std::sync\"; // std::sync here\nlet b = 1;\n";
        let m = mask(src);
        assert!(!m.text.contains("std::sync"));
        assert_eq!(m.text.len(), src.len());
        assert!(m.comments.get(&1).unwrap().text.contains("std::sync"));
        assert!(!m.comments.get(&1).unwrap().comment_only);
    }

    #[test]
    fn comment_only_lines_are_marked() {
        let m = mask("// lint: allow(panic): reason\nx.unwrap();\n");
        assert!(m.comments.get(&1).unwrap().comment_only);
        assert!(!m.comments.contains_key(&2));
    }

    #[test]
    fn nested_block_comments_and_raw_strings() {
        let src = "/* outer /* inner */ still comment */ code\nlet r = r#\"std::sync\"#;\n";
        let m = mask(src);
        assert!(m.text.contains("code"));
        assert!(!m.text.contains("std::sync"));
        assert!(!m.text.contains("still"));
    }

    #[test]
    fn lifetimes_do_not_open_char_literals() {
        let src = "fn f<'a>(v: &'a str) -> char { 'x' }\nlet q = \"quote\";\n";
        let m = mask(src);
        assert!(!m.text.contains("'x'"), "char literal masked: {}", m.text);
        assert!(m.text.contains("&'a str"));
        assert!(!m.text.contains("quote"));
    }

    #[test]
    fn token_matching_is_identifier_bounded() {
        let m = mask("let resync = 1; let x = my_unsafe_fn();\nunsafe { } \n");
        assert!(m.lines_with_token("sync").is_empty());
        assert_eq!(m.lines_with_token("unsafe"), vec![2]);
    }

    #[test]
    fn cfg_test_regions_cover_the_gated_body() {
        let src = "\
fn prod() {}
#[cfg(test)]
mod tests {
    use std::sync::Arc;
    fn t() {}
}
fn prod2() { let _ = 1; }
";
        let m = mask(src);
        let lines = m.test_region_lines();
        assert!(lines.contains(&2) && lines.contains(&4) && lines.contains(&6));
        assert!(!lines.contains(&1) && !lines.contains(&7));
    }

    #[test]
    fn cfg_all_test_variant_is_recognized() {
        let src = "#[cfg(all(test, feature = \"loom\"))]\nmod loom_tests {\n    fn x() {}\n}\n";
        let m = mask(src);
        assert!(m.test_region_lines().contains(&3));
    }

    #[test]
    fn hot_path_extent_spans_the_annotated_fn_only() {
        let src = "\
// lint: hot-path
#[inline]
fn hot() {
    body();
}
fn cold() {}
";
        let m = mask(src);
        let extents = m.hot_path_extents();
        assert_eq!(extents.len(), 1);
        assert_eq!(extents[0], 3..=5);
    }
}
