//! A lightweight item-level parser over the lexed code view.
//!
//! Token rules need no structure, but the
//! coverage rules ([`crate::coverage`]) do: "every field of `FaultStats`
//! is referenced in its `Snapshot::encode` body" is a statement about
//! *items* — a struct definition here, an `impl` block there, a fn body
//! inside it. This module extracts exactly that much structure:
//!
//! * `struct` definitions with their named fields (name + line each) and
//!   leading `#[derive(...)]` list;
//! * `enum` definitions with their variants and derives;
//! * `impl` blocks with trait + self-type resolution (`impl
//!   snapshot::Snapshot for BgmpMsg` → trait `Snapshot`, self `BgmpMsg`)
//!   and the byte span of every fn body inside them.
//!
//! It is *not* a Rust parser: no expressions, no types beyond base-name
//! resolution, no name resolution. It works on the code view (comments
//! and literal contents blanked by [`crate::lexer`]), so every `{`/`}`
//! it sees is structural and brace matching is exact. Items nested in
//! `mod` blocks are found (the scan is positional, not recursive);
//! fn-local items are deliberately out of scope.

/// One named field of a struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// 1-based line of the field name.
    pub line: usize,
}

/// A `struct` definition. Tuple and unit structs parse with an empty
/// field list (they have no *named* fields to cover).
#[derive(Debug, Clone)]
pub struct StructDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the `struct` keyword.
    pub line: usize,
    /// Named fields, in declaration order.
    pub fields: Vec<Field>,
    /// Traits listed in leading `#[derive(...)]` attributes.
    pub derives: Vec<String>,
}

/// One variant of an enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// Variant name.
    pub name: String,
    /// 1-based line of the variant name.
    pub line: usize,
}

/// An `enum` definition.
#[derive(Debug, Clone)]
pub struct EnumDef {
    /// Type name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// Variants, in declaration order.
    pub variants: Vec<Variant>,
    /// Traits listed in leading `#[derive(...)]` attributes.
    pub derives: Vec<String>,
}

/// A fn inside an `impl` block.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Fn name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte span of the body in the code view, including both braces.
    pub body: (usize, usize),
}

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplDef {
    /// Base name of the implemented trait (`snapshot::Snapshot` →
    /// `Snapshot`); `None` for inherent impls.
    pub trait_name: Option<String>,
    /// Base name of the self type (`Option<T>` → `Option`; empty for
    /// tuples/arrays/macro metavariables).
    pub self_name: String,
    /// 1-based line of the `impl` keyword.
    pub line: usize,
    /// Fns directly inside the impl body.
    pub fns: Vec<FnDef>,
}

/// Every item extracted from one file.
#[derive(Debug, Default)]
pub struct Items {
    /// `struct` definitions.
    pub structs: Vec<StructDef>,
    /// `enum` definitions.
    pub enums: Vec<EnumDef>,
    /// `impl` blocks.
    pub impls: Vec<ImplDef>,
}

impl ImplDef {
    /// The fn with this name, if present.
    pub fn find_fn(&self, name: &str) -> Option<&FnDef> {
        self.fns.iter().find(|f| f.name == name)
    }
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn line_of(code: &[u8], pos: usize) -> usize {
    code[..pos.min(code.len())]
        .iter()
        .filter(|&&b| b == b'\n')
        .count()
        + 1
}

/// Parses the code view of one file into its items.
pub fn parse_items(code: &str) -> Items {
    let bytes = code.as_bytes();
    let mut items = Items::default();
    let mut i = 0usize;
    while i < bytes.len() {
        if !is_ident_char(bytes[i]) {
            i += 1;
            continue;
        }
        let s = i;
        while i < bytes.len() && is_ident_char(bytes[i]) {
            i += 1;
        }
        // Not an ident start (mid-ident was impossible: we always
        // consume whole idents).
        if s > 0 && is_ident_char(bytes[s - 1]) {
            continue;
        }
        match &bytes[s..i] {
            b"struct" if at_item_position(bytes, s) => {
                if let Some((def, after)) = parse_struct(bytes, s, i) {
                    items.structs.push(def);
                    i = after;
                }
            }
            b"enum" if at_item_position(bytes, s) => {
                if let Some((def, after)) = parse_enum(bytes, s, i) {
                    items.enums.push(def);
                    i = after;
                }
            }
            b"impl" if at_item_position(bytes, s) => {
                if let Some((def, after)) = parse_impl(bytes, s, i) {
                    items.impls.push(def);
                    i = after;
                }
            }
            _ => {}
        }
    }
    items
}

/// True if the keyword starting at `s` sits at item position: start of
/// file or preceded (ignoring whitespace) by `;`, `{`, `}`, `]` (end of
/// an attribute), `)` (end of `pub(crate)`), or the `pub` keyword. This
/// rejects `-> impl Trait`, `&impl Trait`, `dyn Fn` arguments and other
/// expression/type positions.
fn at_item_position(bytes: &[u8], s: usize) -> bool {
    let mut i = s;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i == 0 {
        return true;
    }
    match bytes[i - 1] {
        b';' | b'{' | b'}' | b']' | b')' => true,
        c if is_ident_char(c) => {
            let mut b = i;
            while b > 0 && is_ident_char(bytes[b - 1]) {
                b -= 1;
            }
            matches!(&bytes[b..i], b"pub" | b"unsafe" | b"default")
        }
        _ => false,
    }
}

/// Next non-whitespace byte index at or after `i`.
fn next_ns(bytes: &[u8], i: usize) -> Option<usize> {
    (i..bytes.len()).find(|&j| !bytes[j].is_ascii_whitespace())
}

/// Reads the ident starting at `i`, returning (text, end).
fn read_ident(bytes: &[u8], i: usize) -> Option<(String, usize)> {
    if i >= bytes.len() || !is_ident_char(bytes[i]) || bytes[i].is_ascii_digit() {
        return None;
    }
    let mut e = i;
    while e < bytes.len() && is_ident_char(bytes[e]) {
        e += 1;
    }
    Some((String::from_utf8_lossy(&bytes[i..e]).into_owned(), e))
}

/// Skips a balanced `<...>` generics group starting at `open` (which
/// must be `<`). `>` preceded by `-` (a `->` arrow inside an `Fn`
/// bound) does not close. Returns the index past the closing `>`.
fn skip_generics(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'<' => depth += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Finds the matching close brace for the `{` at `open`; returns the
/// index *past* it. Brace characters in strings/comments were blanked
/// by the lexer, so counting is exact.
fn match_brace(bytes: &[u8], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    i
}

/// Collects the derive list from `#[derive(...)]` attributes
/// immediately preceding the item keyword at `kw` (skipping `pub`,
/// `pub(...)`, and non-derive attributes).
fn leading_derives(bytes: &[u8], kw: usize) -> Vec<String> {
    let mut derives = Vec::new();
    let mut i = kw;
    loop {
        while i > 0 && bytes[i - 1].is_ascii_whitespace() {
            i -= 1;
        }
        if i == 0 {
            break;
        }
        match bytes[i - 1] {
            b')' => {
                // `pub(crate)` / `pub(super)` — skip the group and the
                // `pub` before it.
                let mut depth = 0usize;
                let mut j = i;
                while j > 0 {
                    j -= 1;
                    match bytes[j] {
                        b')' => depth += 1,
                        b'(' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                i = j;
            }
            c if is_ident_char(c) => {
                let mut b = i;
                while b > 0 && is_ident_char(bytes[b - 1]) {
                    b -= 1;
                }
                if !matches!(&bytes[b..i], b"pub" | b"unsafe" | b"default") {
                    break;
                }
                i = b;
            }
            b']' => {
                // An attribute `#[ ... ]` ending here; match back to
                // its `[`.
                let mut depth = 0usize;
                let mut j = i;
                while j > 0 {
                    j -= 1;
                    match bytes[j] {
                        b']' => depth += 1,
                        b'[' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                let content = String::from_utf8_lossy(&bytes[j + 1..i - 1]).into_owned();
                let compact = content.trim();
                if let Some(rest) = compact.strip_prefix("derive") {
                    let inner = rest.trim().trim_start_matches('(');
                    let inner = inner.strip_suffix(')').unwrap_or(inner);
                    for t in inner.split(',') {
                        let t = t.trim();
                        if !t.is_empty() {
                            // `serde::Serialize` → `Serialize`.
                            derives.push(t.rsplit("::").next().unwrap_or(t).to_string());
                        }
                    }
                }
                // Step past the `#` before the `[`.
                while j > 0 && (bytes[j - 1] == b'#' || bytes[j - 1].is_ascii_whitespace()) {
                    j -= 1;
                    if bytes[j] == b'#' {
                        break;
                    }
                }
                i = j;
            }
            _ => break,
        }
    }
    derives
}

/// Parses a struct whose `struct` keyword spans `kw..kw_end`. Returns
/// the def and the index to resume scanning from.
fn parse_struct(bytes: &[u8], kw: usize, kw_end: usize) -> Option<(StructDef, usize)> {
    let name_at = next_ns(bytes, kw_end)?;
    let (name, mut i) = read_ident(bytes, name_at)?;
    let derives = leading_derives(bytes, kw);
    // Generics, then `;` (unit), `(` (tuple), `where`, or `{`.
    loop {
        let n = next_ns(bytes, i)?;
        match bytes[n] {
            b'<' => i = skip_generics(bytes, n),
            b';' => {
                return Some((
                    StructDef {
                        name,
                        line: line_of(bytes, kw),
                        fields: Vec::new(),
                        derives,
                    },
                    n + 1,
                ));
            }
            b'(' => {
                // Tuple struct: skip the paren group and the trailing
                // `;` (possibly after a where clause).
                let mut depth = 0usize;
                let mut j = n;
                while j < bytes.len() {
                    match bytes[j] {
                        b'(' => depth += 1,
                        b')' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return Some((
                    StructDef {
                        name,
                        line: line_of(bytes, kw),
                        fields: Vec::new(),
                        derives,
                    },
                    j + 1,
                ));
            }
            b'{' => {
                let end = match_brace(bytes, n);
                let fields = parse_fields(bytes, n + 1, end.saturating_sub(1));
                return Some((
                    StructDef {
                        name,
                        line: line_of(bytes, kw),
                        fields,
                        derives,
                    },
                    end,
                ));
            }
            _ => {
                // A where clause or anything else: skip one token.
                i = if is_ident_char(bytes[n]) {
                    read_ident(bytes, n).map(|(_, e)| e).unwrap_or(n + 1)
                } else {
                    n + 1
                };
            }
        }
    }
}

/// Parses the named fields between `from..to` (the struct body without
/// its braces). A field is `[attrs] [pub[(..)]] name : type`, separated
/// by top-level commas.
fn parse_fields(bytes: &[u8], from: usize, to: usize) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut i = from;
    while i < to {
        // Skip whitespace and attributes.
        let Some(n) = next_ns(bytes, i) else { break };
        if n >= to {
            break;
        }
        if bytes[n] == b'#' {
            // Skip `#[...]`.
            let Some(open) = next_ns(bytes, n + 1) else {
                break;
            };
            if bytes[open] == b'[' {
                let mut depth = 0usize;
                let mut j = open;
                while j < to {
                    match bytes[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            i = n + 1;
            continue;
        }
        // Visibility.
        if let Some((id, e)) = read_ident(bytes, n) {
            if id == "pub" {
                let Some(after) = next_ns(bytes, e) else {
                    break;
                };
                if bytes[after] == b'(' {
                    let mut depth = 0usize;
                    let mut j = after;
                    while j < to {
                        match bytes[j] {
                            b'(' => depth += 1,
                            b')' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    i = j + 1;
                } else {
                    i = e;
                }
                continue;
            }
            // Field name: must be followed by `:` (not `::`).
            let Some(after) = next_ns(bytes, e) else {
                break;
            };
            if bytes[after] == b':' && bytes.get(after + 1) != Some(&b':') {
                fields.push(Field {
                    name: id,
                    line: line_of(bytes, n),
                });
            }
            // Skip to the next top-level comma.
            i = skip_to_comma(bytes, after, to);
            continue;
        }
        i = n + 1;
    }
    fields
}

/// Advances past the type expression to just after the next comma at
/// paren/bracket/brace/angle depth zero (or `to`).
fn skip_to_comma(bytes: &[u8], from: usize, to: usize) -> usize {
    let mut depth = 0isize;
    let mut angle = 0isize;
    let mut i = from;
    while i < to {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'<' => angle += 1,
            b'>' if i > 0 && bytes[i - 1] == b'-' => {}
            b'>' => angle -= 1,
            b',' if depth == 0 && angle <= 0 => return i + 1,
            _ => {}
        }
        i += 1;
    }
    to
}

/// Parses an enum whose `enum` keyword spans `kw..kw_end`.
fn parse_enum(bytes: &[u8], kw: usize, kw_end: usize) -> Option<(EnumDef, usize)> {
    let name_at = next_ns(bytes, kw_end)?;
    let (name, mut i) = read_ident(bytes, name_at)?;
    let derives = leading_derives(bytes, kw);
    loop {
        let n = next_ns(bytes, i)?;
        match bytes[n] {
            b'<' => i = skip_generics(bytes, n),
            b'{' => {
                let end = match_brace(bytes, n);
                let variants = parse_variants(bytes, n + 1, end.saturating_sub(1));
                return Some((
                    EnumDef {
                        name,
                        line: line_of(bytes, kw),
                        variants,
                        derives,
                    },
                    end,
                ));
            }
            b';' => return None, // `enum Foo;` is not Rust; bail
            _ => {
                i = if is_ident_char(bytes[n]) {
                    read_ident(bytes, n).map(|(_, e)| e).unwrap_or(n + 1)
                } else {
                    n + 1
                };
            }
        }
    }
}

/// Parses variants between `from..to`: `[attrs] Name [(..) | {..} | =
/// expr]`, comma-separated at top level.
fn parse_variants(bytes: &[u8], from: usize, to: usize) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut i = from;
    while i < to {
        let Some(n) = next_ns(bytes, i) else { break };
        if n >= to {
            break;
        }
        if bytes[n] == b'#' {
            let Some(open) = next_ns(bytes, n + 1) else {
                break;
            };
            if bytes[open] == b'[' {
                let mut depth = 0usize;
                let mut j = open;
                while j < to {
                    match bytes[j] {
                        b'[' => depth += 1,
                        b']' => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                i = j + 1;
                continue;
            }
            i = n + 1;
            continue;
        }
        if let Some((id, e)) = read_ident(bytes, n) {
            variants.push(Variant {
                name: id,
                line: line_of(bytes, n),
            });
            i = skip_to_comma(bytes, e, to);
            continue;
        }
        i = n + 1;
    }
    variants
}

/// Parses an impl block whose `impl` keyword spans `kw..kw_end`.
fn parse_impl(bytes: &[u8], kw: usize, kw_end: usize) -> Option<(ImplDef, usize)> {
    let mut i = kw_end;
    // Optional generics directly after `impl`.
    if let Some(n) = next_ns(bytes, i) {
        if bytes[n] == b'<' {
            i = skip_generics(bytes, n);
        }
    }
    // Header tokens up to the body `{` (or `where`), split on `for`.
    let mut before_for: Vec<String> = Vec::new();
    let mut after_for: Vec<String> = Vec::new();
    let mut saw_for = false;
    let open;
    loop {
        let n = next_ns(bytes, i)?;
        match bytes[n] {
            b'{' => {
                open = n;
                break;
            }
            b'<' => i = skip_generics(bytes, n),
            b'(' | b'[' => {
                // Tuple/array self type: skip the group; base name
                // stays empty.
                let (o, c) = if bytes[n] == b'(' {
                    (b'(', b')')
                } else {
                    (b'[', b']')
                };
                let mut depth = 0usize;
                let mut j = n;
                while j < bytes.len() {
                    if bytes[j] == o {
                        depth += 1;
                    } else if bytes[j] == c {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
                i = j + 1;
            }
            _ if is_ident_char(bytes[n]) => {
                let (id, e) = read_ident(bytes, n)?;
                i = e;
                match id.as_str() {
                    "for" => saw_for = true,
                    "where" => {
                        // Skip the where clause to the body brace.
                        let mut j = i;
                        while j < bytes.len() && bytes[j] != b'{' {
                            if bytes[j] == b'<' {
                                j = skip_generics(bytes, j);
                            } else {
                                j += 1;
                            }
                        }
                        i = j;
                    }
                    _ => {
                        if saw_for {
                            after_for.push(id);
                        } else {
                            before_for.push(id);
                        }
                    }
                }
            }
            _ => i = n + 1,
        }
    }
    let end = match_brace(bytes, open);
    let (trait_name, self_name) = if saw_for {
        (
            before_for.last().cloned(),
            after_for.last().cloned().unwrap_or_default(),
        )
    } else {
        (None, before_for.last().cloned().unwrap_or_default())
    };
    let fns = parse_fns(bytes, open + 1, end.saturating_sub(1));
    Some((
        ImplDef {
            trait_name,
            self_name,
            line: line_of(bytes, kw),
            fns,
        },
        end,
    ))
}

/// Extracts fns directly inside an impl body span.
fn parse_fns(bytes: &[u8], from: usize, to: usize) -> Vec<FnDef> {
    let mut fns = Vec::new();
    let mut i = from;
    while i < to {
        if !is_ident_char(bytes[i]) {
            i += 1;
            continue;
        }
        let s = i;
        while i < to && is_ident_char(bytes[i]) {
            i += 1;
        }
        if &bytes[s..i] != b"fn" || (s > 0 && is_ident_char(bytes[s - 1])) {
            continue;
        }
        let Some(name_at) = next_ns(bytes, i) else {
            break;
        };
        let Some((name, e)) = read_ident(bytes, name_at) else {
            continue;
        };
        // Find the body `{`, skipping the signature (parens, generics,
        // return type, where clause). A `;` first means a trait-method
        // declaration without a body.
        let mut j = e;
        let mut body = None;
        while j < to {
            match bytes[j] {
                b'{' => {
                    body = Some(j);
                    break;
                }
                b';' => break,
                b'<' => j = skip_generics(bytes, j),
                b'(' => {
                    let mut depth = 0usize;
                    while j < to {
                        match bytes[j] {
                            b'(' => depth += 1,
                            b')' => {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    j += 1;
                }
                _ => j += 1,
            }
        }
        if let Some(open) = body {
            let end = match_brace(bytes, open);
            fns.push(FnDef {
                name,
                line: line_of(bytes, s),
                body: (open, end),
            });
            i = end;
        } else {
            i = j;
        }
    }
    fns
}

/// True if `name` occurs as a whole identifier anywhere in
/// `code[span.0..span.1]`.
pub fn ident_in_span(code: &str, span: (usize, usize), name: &str) -> bool {
    let hay = &code.as_bytes()[span.0.min(code.len())..span.1.min(code.len())];
    let needle = name.as_bytes();
    if needle.is_empty() {
        return false;
    }
    let mut i = 0usize;
    while i + needle.len() <= hay.len() {
        if &hay[i..i + needle.len()] == needle {
            let before_ok = i == 0 || !is_ident_char(hay[i - 1]);
            let after_ok = i + needle.len() == hay.len() || !is_ident_char(hay[i + needle.len()]);
            if before_ok && after_ok {
                return true;
            }
        }
        i += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Items {
        parse_items(&lex(src).code)
    }

    #[test]
    fn struct_fields_and_derives() {
        let src = "#[derive(Debug, Clone, Serialize, Deserialize)]\npub struct FaultModel {\n    /// Loss probability.\n    pub loss: f64,\n    pub dup: f64,\n    jitter_ms: u64,\n}\n";
        let items = parse(src);
        assert_eq!(items.structs.len(), 1);
        let s = &items.structs[0];
        assert_eq!(s.name, "FaultModel");
        assert_eq!(
            s.fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["loss", "dup", "jitter_ms"]
        );
        assert_eq!(s.fields[0].line, 4);
        assert!(s.derives.iter().any(|d| d == "Serialize"));
        assert!(s.derives.iter().any(|d| d == "Deserialize"));
    }

    #[test]
    fn tuple_and_unit_structs_have_no_named_fields() {
        let items = parse("pub struct SimTime(pub u64);\nstruct Marker;\n");
        assert_eq!(items.structs.len(), 2);
        assert!(items.structs[0].fields.is_empty());
        assert!(items.structs[1].fields.is_empty());
    }

    #[test]
    fn generic_fields_do_not_split_on_inner_commas() {
        let src = "struct S {\n    map: BTreeMap<u32, Vec<(u8, u8)>>,\n    next: Option<fn(u32) -> bool>,\n}\n";
        let s = &parse(src).structs[0];
        assert_eq!(
            s.fields.iter().map(|f| f.name.as_str()).collect::<Vec<_>>(),
            vec!["map", "next"]
        );
    }

    #[test]
    fn enum_variants_with_payloads() {
        let src = "pub enum Msg {\n    Hello { router: u32 },\n    Data(u64, u32),\n    Quit,\n}\n";
        let e = &parse(src).enums[0];
        assert_eq!(e.name, "Msg");
        assert_eq!(
            e.variants
                .iter()
                .map(|v| v.name.as_str())
                .collect::<Vec<_>>(),
            vec!["Hello", "Data", "Quit"]
        );
        assert_eq!(e.variants[1].line, 3);
    }

    #[test]
    fn impl_trait_and_self_resolution() {
        let src = "impl snapshot::Snapshot for BgmpMsg {\n    fn encode(&self, enc: &mut Enc) { self.x; }\n    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> { Ok(Self::X) }\n}\n";
        let im = &parse(src).impls[0];
        assert_eq!(im.trait_name.as_deref(), Some("Snapshot"));
        assert_eq!(im.self_name, "BgmpMsg");
        assert_eq!(im.fns.len(), 2);
        assert!(im.find_fn("encode").is_some());
        assert!(im.find_fn("decode").is_some());
    }

    #[test]
    fn generic_impl_resolves_base_names() {
        let src = "impl<T: Snapshot + Ord> Snapshot for BTreeSet<T> {\n    fn encode(&self, enc: &mut Enc) {}\n}\n";
        let im = &parse(src).impls[0];
        assert_eq!(im.trait_name.as_deref(), Some("Snapshot"));
        assert_eq!(im.self_name, "BTreeSet");
    }

    #[test]
    fn inherent_impl_has_no_trait() {
        let src = "impl Engine {\n    pub fn checkpoint(&self) -> Vec<u8> { Vec::new() }\n}\n";
        let im = &parse(src).impls[0];
        assert_eq!(im.trait_name, None);
        assert_eq!(im.self_name, "Engine");
    }

    #[test]
    fn return_position_impl_is_not_an_item() {
        let src = "fn f() -> impl Iterator<Item = u32> {\n    (0..3).map(|x| x)\n}\nstruct After { a: u8 }\n";
        let items = parse(src);
        assert!(items.impls.is_empty());
        assert_eq!(items.structs.len(), 1);
    }

    #[test]
    fn fn_bodies_span_and_nested_braces() {
        let src = "impl S {\n    fn a(&self) { if x { y } else { z } }\n    fn b(&self) { w }\n}\n";
        let im = &parse(src).impls[0];
        let a = im.find_fn("a").unwrap();
        let body = &src[a.body.0..a.body.1];
        assert!(body.contains("else { z }"));
        assert!(!body.contains("fn b"));
        assert!(im.find_fn("b").is_some());
    }

    #[test]
    fn where_clause_impl_parses() {
        let src = "impl<T> Snapshot for Wrapper<T> where T: Clone {\n    fn encode(&self) {}\n}\n";
        let im = &parse(src).impls[0];
        assert_eq!(im.self_name, "Wrapper");
        assert_eq!(im.fns.len(), 1);
    }

    #[test]
    fn ident_in_span_is_boundary_exact() {
        let code = "self.loss_total + loss";
        assert!(ident_in_span(code, (0, code.len()), "loss"));
        assert!(ident_in_span(code, (0, code.len()), "loss_total"));
        assert!(!ident_in_span(code, (0, 14), "loss"));
    }

    #[test]
    fn trait_method_declaration_without_body_is_skipped() {
        let src = "impl Probe for P {\n    fn id(&self) -> u32;\n    fn run(&self) { go() }\n}\n";
        let im = &parse(src).impls[0];
        assert_eq!(im.fns.len(), 1);
        assert_eq!(im.fns[0].name, "run");
    }
}
