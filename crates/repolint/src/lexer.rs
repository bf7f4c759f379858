//! A minimal Rust source lexer: just enough to know, for every byte of
//! a source file, whether it is code, comment, or literal content.
//!
//! The retired rule engine scanned the *code view* — the
//! original source with comment bodies and string/char literal contents
//! blanked to spaces — so a forbidden token inside a doc comment or a
//! string literal never fires. Newlines are preserved everywhere, so
//! byte offsets and line numbers in the code view match the source
//! exactly. Comments are collected separately (with line and
//! trailing/own-line position) for `lint:allow` processing.
//!
//! Handled syntax: line comments (`//`, `///`, `//!`), nested block
//! comments, string literals with escapes, byte strings, raw strings
//! (`r"…"`, `r#"…"#`, any hash count, plus `br`/`cr` prefixes), raw
//! identifiers (`r#match`), char and byte-char literals, and the
//! char-literal/lifetime ambiguity (`'a'` vs `<'a>`).

/// One comment from the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based line of the comment's first character.
    pub line: usize,
    /// Comment text *without* the `//` / `/*` markers, trimmed.
    pub text: String,
    /// True if non-whitespace source precedes it on the same line
    /// (a trailing comment annotates its own line; an own-line comment
    /// annotates the next code line).
    pub trailing: bool,
}

/// Lexed view of one source file.
#[derive(Debug)]
pub struct Lexed {
    /// Source with comments and literal contents blanked to spaces.
    /// Always the same byte length as the input, with identical
    /// newline positions; always valid ASCII-compatible UTF-8.
    pub code: String,
    /// All comments, in source order.
    pub comments: Vec<Comment>,
    /// For each 1-based line, true if the line is inside a
    /// `#[cfg(test)]` item (unit tests compiled out of real builds).
    pub test_lines: Vec<bool>,
}

impl Lexed {
    /// 1-based line containing byte offset `pos` of the code view.
    pub fn line_of(&self, pos: usize) -> usize {
        self.code.as_bytes()[..pos]
            .iter()
            .filter(|&&b| b == b'\n')
            .count()
            + 1
    }

    /// True if the (1-based) line is inside `#[cfg(test)]` code.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines.get(line).copied().unwrap_or(false)
    }
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

/// Lexes `src` into a code view plus comment list.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut code = bytes.to_vec();
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut line_has_code = false;
    let mut i = 0usize;

    // Blanks `code[from..to]`, preserving newlines.
    let blank = |code: &mut [u8], from: usize, to: usize| {
        for b in &mut code[from..to] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    };

    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                line_has_code = false;
                i += 1;
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                comments.push(Comment {
                    line,
                    text: src[start + 2..i].trim().to_string(),
                    trailing: line_has_code,
                });
                blank(&mut code, start, i);
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let start = i;
                let start_line = line;
                let trailing = line_has_code;
                let mut depth = 1usize;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                let end_text = i.saturating_sub(2).max(start + 2);
                comments.push(Comment {
                    line: start_line,
                    text: src[start + 2..end_text].trim().to_string(),
                    trailing,
                });
                blank(&mut code, start, i);
                line_has_code = false;
            }
            b'"' => {
                i = consume_string(bytes, i, &mut line, &mut code, &blank);
                line_has_code = true;
            }
            b'\'' => {
                i = consume_quote_or_lifetime(bytes, i, &mut code, &blank);
                line_has_code = true;
            }
            _ if is_ident_start(b) => {
                let start = i;
                while i < bytes.len() && is_ident_char(bytes[i]) {
                    i += 1;
                }
                let ident = &bytes[start..i];
                // Raw / byte / C string prefixes, raw identifiers, and
                // byte-char literals.
                match ident {
                    b"r" | b"br" | b"cr" => {
                        if let Some(end) = raw_string_end(bytes, i) {
                            let from = i;
                            i = end;
                            line += bytes[from..i].iter().filter(|&&c| c == b'\n').count();
                            blank(&mut code, from, i);
                        } else if ident == b"r" && bytes.get(i) == Some(&b'#') {
                            // Raw identifier `r#name`.
                            i += 1;
                            while i < bytes.len() && is_ident_char(bytes[i]) {
                                i += 1;
                            }
                        }
                    }
                    b"b" | b"c" => {
                        if bytes.get(i) == Some(&b'"') {
                            i = consume_string(bytes, i, &mut line, &mut code, &blank);
                        } else if ident == b"b" && bytes.get(i) == Some(&b'\'') {
                            i = consume_quote_or_lifetime(bytes, i, &mut code, &blank);
                        }
                    }
                    _ => {}
                }
                line_has_code = true;
            }
            _ => {
                if !b.is_ascii_whitespace() {
                    line_has_code = true;
                }
                i += 1;
            }
        }
    }

    // SAFETY of from_utf8: blanking replaces bytes with ASCII spaces
    // only inside comment/literal spans, each of which starts and ends
    // on ASCII delimiters; any multi-byte sequence is replaced wholly.
    let code = String::from_utf8(code)
        .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
    let test_lines = mark_test_lines(&code);
    Lexed {
        code,
        comments,
        test_lines,
    }
}

/// Consumes a `"…"` string starting at the opening quote; returns the
/// index just past the closing quote. Blanks the contents (quotes kept).
fn consume_string(
    bytes: &[u8],
    open: usize,
    line: &mut usize,
    code: &mut [u8],
    blank: &impl Fn(&mut [u8], usize, usize),
) -> usize {
    let mut i = open + 1;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            b'"' => {
                i += 1;
                break;
            }
            _ => i += 1,
        }
    }
    blank(code, open + 1, (i.max(open + 2)) - 1);
    i
}

/// At a `'`: either a char literal (blank its contents) or a lifetime
/// (leave as code). Returns the index just past what was consumed.
fn consume_quote_or_lifetime(
    bytes: &[u8],
    open: usize,
    code: &mut [u8],
    blank: &impl Fn(&mut [u8], usize, usize),
) -> usize {
    let next = match bytes.get(open + 1) {
        Some(&n) => n,
        None => return open + 1,
    };
    if next == b'\\' {
        // Escaped char literal: '\n', '\'', '\u{..}'.
        let mut i = open + 2;
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1;
        }
        let end = (i + 1).min(bytes.len());
        blank(code, open + 1, end.saturating_sub(1));
        return end;
    }
    if is_ident_char(next) || next == b' ' {
        // 'a' is a char literal iff a closing quote follows the single
        // char; otherwise it's a lifetime ('a, 'static).
        let mut j = open + 2;
        // Multi-byte UTF-8 scalar in a char literal.
        while j < bytes.len() && (bytes[j] & 0xC0) == 0x80 {
            j += 1;
        }
        if bytes.get(j) == Some(&b'\'') {
            blank(code, open + 1, j);
            return j + 1;
        }
        return open + 1; // lifetime: leave the ident as code
    }
    // Non-ident single char: '(' , '[' etc. — a char literal.
    let mut j = open + 2;
    while j < bytes.len() && (bytes[j] & 0xC0) == 0x80 {
        j += 1;
    }
    if bytes.get(j) == Some(&b'\'') {
        blank(code, open + 1, j);
        return j + 1;
    }
    open + 1
}

/// If `bytes[from..]` opens a raw string (`#`* then `"`), returns the
/// index just past its closing delimiter.
fn raw_string_end(bytes: &[u8], from: usize) -> Option<usize> {
    let mut i = from;
    let mut hashes = 0usize;
    while bytes.get(i) == Some(&b'#') {
        hashes += 1;
        i += 1;
    }
    if bytes.get(i) != Some(&b'"') {
        return None;
    }
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            let mut h = 0usize;
            while h < hashes && bytes.get(i + 1 + h) == Some(&b'#') {
                h += 1;
            }
            if h == hashes {
                return Some(i + 1 + hashes);
            }
        }
        i += 1;
    }
    Some(bytes.len())
}

/// Marks lines covered by `#[cfg(test)]` items (attribute through the
/// item's closing brace or semicolon).
fn mark_test_lines(code: &str) -> Vec<bool> {
    let bytes = code.as_bytes();
    let total_lines = code.lines().count() + 2;
    let mut marks = vec![false; total_lines + 1];
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'#' {
            i += 1;
            continue;
        }
        let (content, after) = match attr_content(bytes, i) {
            Some(x) => x,
            None => {
                i += 1;
                continue;
            }
        };
        let compact: String = content.chars().filter(|c| !c.is_whitespace()).collect();
        if compact != "cfg(test)" {
            i = after;
            continue;
        }
        let start_line = line_at(bytes, i);
        // Skip any further attributes, then find the item's extent.
        let mut j = after;
        loop {
            while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                j += 1;
            }
            if bytes.get(j) == Some(&b'#') {
                match attr_content(bytes, j) {
                    Some((_, a)) => j = a,
                    None => break,
                }
            } else {
                break;
            }
        }
        let mut depth = 0usize;
        let mut end = j;
        while end < bytes.len() {
            match bytes[end] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                b';' if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let end_line = line_at(bytes, end.min(bytes.len().saturating_sub(1)));
        for mark in marks
            .iter_mut()
            .take(end_line.min(total_lines) + 1)
            .skip(start_line)
        {
            *mark = true;
        }
        i = end.max(after);
    }
    marks
}

/// Parses `#[ … ]` at `at`; returns (content, index past `]`).
fn attr_content(bytes: &[u8], at: usize) -> Option<(&str, usize)> {
    if bytes.get(at) != Some(&b'#') {
        return None;
    }
    let mut i = at + 1;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    // `#![…]` inner attributes gate the whole file; we only handle the
    // outer form (the repo uses outer `#[cfg(test)]` exclusively).
    if bytes.get(i) != Some(&b'[') {
        return None;
    }
    let open = i;
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    let content = std::str::from_utf8(&bytes[open + 1..i]).ok()?;
                    return Some((content, i + 1));
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

fn line_at(bytes: &[u8], pos: usize) -> usize {
    bytes[..pos.min(bytes.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let a = \"Instant::now\"; // Instant::now\nlet b = 1;\n";
        let l = lex(src);
        assert!(!l.code.contains("Instant"));
        assert!(l.code.contains("let a ="));
        assert!(l.code.contains("let b = 1;"));
        assert_eq!(l.comments.len(), 1);
        assert!(l.comments[0].trailing);
        assert_eq!(l.comments[0].text, "Instant::now");
    }

    #[test]
    fn raw_strings_and_chars() {
        let src = "let r = r#\"SystemTime::now \"# ; let c = 'x'; let lt: &'static str = \"\";\n";
        let l = lex(src);
        assert!(!l.code.contains("SystemTime"));
        assert!(!l.code.contains('x'), "char literal content blanked");
        assert!(l.code.contains("'static"), "lifetime preserved");
    }

    #[test]
    fn nested_block_comment() {
        let src = "a /* outer /* inner */ still comment */ b\n";
        let l = lex(src);
        assert!(l.code.contains('a'));
        assert!(l.code.contains('b'));
        assert!(!l.code.contains("inner"));
    }

    #[test]
    fn cfg_test_mod_lines_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let l = lex(src);
        assert!(!l.is_test_line(1));
        assert!(l.is_test_line(2));
        assert!(l.is_test_line(4));
        assert!(l.is_test_line(5));
        assert!(!l.is_test_line(6));
    }

    #[test]
    fn own_line_comment_not_trailing() {
        let src = "// own line\nlet x = 1; // trailing\n";
        let l = lex(src);
        assert!(!l.comments[0].trailing);
        assert!(l.comments[1].trailing);
    }
}
