//! Coverage rules over parsed items ([`crate::parser`]).
//!
//! The checkpoint/resume contract (DESIGN.md §11) and the wire codecs
//! fail *silently* when they fall out of sync with the types they
//! serialize: a new struct field that `Snapshot::encode` never writes
//! simply vanishes across a resume; an enum variant missing from a
//! decode `match` turns into `SnapError::Invalid` only on the day that
//! variant first crosses a checkpoint. These rules make both contracts
//! structural:
//!
//! * **`snapshot-field-coverage`** — for every manual `impl Snapshot` /
//!   `impl SnapshotState`, every named field of the self struct must be
//!   referenced in both the encode and decode bodies. Intentionally
//!   unserialized fields (derived caches, wiring rebuilt from
//!   topology) carry a justified `lint:allow` on the field line.
//! * **`wire-variant-coverage`** — three structural checks: (a) every
//!   variant of an enum with a manual `Snapshot` impl appears in both
//!   encode and decode bodies; (b) the integer tags written by encode
//!   (`enc.u8(N)`) equal the tags matched by decode (`N =>`); (c) in
//!   wire modules (`*/src/msg.rs`, `actors::wire`, `snapshot::codec`),
//!   every enum must have *some* total codec (manual impl or
//!   `Serialize`+`Deserialize` derives), and every `SNAP_KIND_*`
//!   constant must be written via `Enc::with_header` and checked via
//!   `dec.header` somewhere in its crate.
//!
//! Scope is impl-driven: any crate defining a `Snapshot`/`SnapshotState`
//! impl is covered, so a future crate is scanned the day its first
//! impl lands — no registry to update.

use std::collections::{BTreeMap, BTreeSet};

use crate::findings::Finding;
use crate::lexer::Lexed;
use crate::parser::{ident_in_span, EnumDef, FnDef, ImplDef, Items, StructDef};

/// One file's parsed view.
pub struct FileCtx<'a> {
    /// Workspace-relative, `/`-separated path.
    pub path: &'a str,
    /// Lexed view (code + test-line map).
    pub lexed: &'a Lexed,
    /// Parsed items.
    pub items: &'a Items,
}

/// Crate name from a workspace-relative path (`crates/<name>/…`).
fn crate_of(path: &str) -> Option<&str> {
    let mut seg = path.split('/');
    if seg.next() == Some("crates") {
        seg.next()
    } else {
        None
    }
}

/// True for modules that define wire-format enums: per-crate `msg.rs` /
/// `wire.rs` and the snapshot codec. Glob-shaped on purpose — a future
/// `crates/bier/src/msg.rs` is in scope the day it exists.
fn is_wire_module(path: &str) -> bool {
    path.starts_with("crates/")
        && (path.ends_with("/src/msg.rs")
            || path.ends_with("/src/wire.rs")
            || path == "crates/snapshot/src/codec.rs")
}

/// The encode/decode fn pair of a capture impl, for either trait
/// spelling.
fn codec_fns(im: &ImplDef) -> Option<(&FnDef, &FnDef)> {
    match im.trait_name.as_deref() {
        Some("Snapshot") => Some((im.find_fn("encode")?, im.find_fn("decode")?)),
        Some("SnapshotState") => Some((im.find_fn("encode_state")?, im.find_fn("restore_state")?)),
        _ => None,
    }
}

fn push(out: &mut Vec<Finding>, path: &str, line: usize, rule: &'static str, msg: String) {
    out.push(Finding {
        path: path.to_string(),
        line,
        rule,
        message: msg,
    });
}

/// Runs the coverage rules over every file of a workspace scan.
/// Findings on `#[cfg(test)]` lines are dropped here (test scaffolding
/// may serialize however it likes), and items *defined* on test lines
/// never participate in pairing, so a test-local type cannot shadow a
/// live one.
pub fn lint_coverage(files: &[FileCtx<'_>]) -> Vec<Finding> {
    let mut out = Vec::new();

    // Group files per crate; coverage pairing never crosses a crate
    // boundary (the orphan rule pins an impl to its type's crate).
    let mut crates: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, f) in files.iter().enumerate() {
        let key = crate_of(f.path).unwrap_or("");
        crates.entry(key).or_default().push(i);
    }

    for file_idxs in crates.values() {
        lint_crate(files, file_idxs, &mut out);
    }

    // Drop findings that landed on test lines.
    let by_path: BTreeMap<&str, usize> =
        files.iter().enumerate().map(|(i, f)| (f.path, i)).collect();
    out.retain(|f| {
        by_path
            .get(f.path.as_str())
            .is_none_or(|&i| !files[i].lexed.is_test_line(f.line))
    });
    out.sort();
    out
}

fn lint_crate(files: &[FileCtx<'_>], idxs: &[usize], out: &mut Vec<Finding>) {
    // Index live (non-test) structs and enums by name.
    let mut structs: BTreeMap<&str, Vec<(usize, &StructDef)>> = BTreeMap::new();
    let mut enums: BTreeMap<&str, Vec<(usize, &EnumDef)>> = BTreeMap::new();
    for &i in idxs {
        let f = &files[i];
        for s in &f.items.structs {
            if !f.lexed.is_test_line(s.line) {
                structs.entry(&s.name).or_default().push((i, s));
            }
        }
        for e in &f.items.enums {
            if !f.lexed.is_test_line(e.line) {
                enums.entry(&e.name).or_default().push((i, e));
            }
        }
    }

    // Names of enums with a live manual capture impl (for the
    // wire-module "has any codec" check).
    let mut manual_impl: BTreeSet<&str> = BTreeSet::new();

    for &i in idxs {
        let f = &files[i];
        for im in &f.items.impls {
            if f.lexed.is_test_line(im.line) {
                continue;
            }
            let Some((enc_fn, dec_fn)) = codec_fns(im) else {
                continue;
            };
            let code = &f.lexed.code;

            // snapshot-field-coverage: every named field of the self
            // struct referenced in both bodies.
            for &(si, sd) in structs.get(im.self_name.as_str()).map_or(&[][..], |v| v) {
                for field in &sd.fields {
                    let in_enc = ident_in_span(code, enc_fn.body, &field.name);
                    let in_dec = ident_in_span(code, dec_fn.body, &field.name);
                    if in_enc && in_dec {
                        continue;
                    }
                    let missing = match (in_enc, in_dec) {
                        (false, false) => "either body",
                        (false, true) => "the encode body",
                        (true, false) => "the decode body",
                        _ => unreachable!(),
                    };
                    push(
                        out,
                        files[si].path,
                        field.line,
                        "snapshot-field-coverage",
                        format!(
                            "field `{}` of `{}` is not referenced in {missing} of its \
                             `{}` impl ({}:{}) — unserialized state silently diverges on \
                             resume; encode+decode it, or mark it derived with a justified \
                             `lint:allow`",
                            field.name,
                            sd.name,
                            im.trait_name.as_deref().unwrap_or("?"),
                            f.path,
                            im.line,
                        ),
                    );
                }
            }

            // wire-variant-coverage (a): every variant of the self enum
            // referenced in both bodies.
            for &(ei, ed) in enums.get(im.self_name.as_str()).map_or(&[][..], |v| v) {
                manual_impl.insert(&ed.name);
                for v in &ed.variants {
                    let in_enc = ident_in_span(code, enc_fn.body, &v.name);
                    let in_dec = ident_in_span(code, dec_fn.body, &v.name);
                    if in_enc && in_dec {
                        continue;
                    }
                    let missing = match (in_enc, in_dec) {
                        (false, false) => "either match",
                        (false, true) => "the encode match",
                        (true, false) => "the decode match",
                        _ => unreachable!(),
                    };
                    push(
                        out,
                        files[ei].path,
                        v.line,
                        "wire-variant-coverage",
                        format!(
                            "variant `{}::{}` does not appear in {missing} of its `{}` \
                             impl ({}:{}) — an unencodable/undecodable variant surfaces \
                             only when it first crosses the wire",
                            ed.name,
                            v.name,
                            im.trait_name.as_deref().unwrap_or("?"),
                            f.path,
                            im.line,
                        ),
                    );
                }
            }

            // wire-variant-coverage (b): tag symmetry between the
            // `enc.u8(N)` literals written and the `N =>` arms matched.
            let enc_tags = u8_literal_tags(code, enc_fn.body);
            let dec_tags = int_match_arms(code, dec_fn.body);
            // Compare only when both sides use the literal-tag idiom;
            // a cast-based encode or helper-based decode yields an
            // empty set and proves nothing either way.
            if !enc_tags.is_empty() && !dec_tags.is_empty() {
                let only_enc: Vec<u64> = enc_tags.difference(&dec_tags).copied().collect();
                let only_dec: Vec<u64> = dec_tags.difference(&enc_tags).copied().collect();
                if !only_enc.is_empty() {
                    push(
                        out,
                        f.path,
                        dec_fn.line,
                        "wire-variant-coverage",
                        format!(
                            "tag(s) {only_enc:?} are written by encode but matched by no \
                             decode arm in `impl {} for {}` — decoding that tag fails",
                            im.trait_name.as_deref().unwrap_or("?"),
                            im.self_name,
                        ),
                    );
                }
                if !only_dec.is_empty() {
                    push(
                        out,
                        f.path,
                        enc_fn.line,
                        "wire-variant-coverage",
                        format!(
                            "decode arm tag(s) {only_dec:?} are never written by encode in \
                             `impl {} for {}` — dead arm or a missing encode line",
                            im.trait_name.as_deref().unwrap_or("?"),
                            im.self_name,
                        ),
                    );
                }
            }
        }
    }

    // wire-variant-coverage (c): enums defined in wire modules need
    // *some* total codec.
    for (name, defs) in &enums {
        for &(ei, ed) in defs {
            if !is_wire_module(files[ei].path) {
                continue;
            }
            if manual_impl.contains(name) {
                continue;
            }
            let ser = ed.derives.iter().any(|d| d == "Serialize");
            let de = ed.derives.iter().any(|d| d == "Deserialize");
            if ser && de {
                continue;
            }
            let lack = if ser {
                "derives `Serialize` but not `Deserialize`"
            } else if de {
                "derives `Deserialize` but not `Serialize`"
            } else {
                "has neither a manual `Snapshot` impl nor `Serialize`+`Deserialize` derives"
            };
            push(
                out,
                files[ei].path,
                ed.line,
                "wire-variant-coverage",
                format!(
                    "wire enum `{name}` {lack} — every message/codec enum needs a total \
                     encode/decode pair"
                ),
            );
        }
    }

    // wire-variant-coverage (d): every SNAP_KIND_* constant is written
    // (Enc::with_header) and checked (dec.header) somewhere in the
    // crate.
    lint_kind_tags(files, idxs, out);
}

/// Integer tags written by a `.u8(…)` call inside `span`. Two idioms
/// count: a bare literal argument (`enc.u8(0)`) and the arm results of
/// an inline match (`enc.u8(match self { A => 0, B => 1 })`).
/// Arithmetic and casts (`enc.u8(*self as u8)`) yield nothing — the
/// tag set is then empty and symmetry is not checked.
fn u8_literal_tags(code: &str, span: (usize, usize)) -> BTreeSet<u64> {
    let bytes = &code.as_bytes()[span.0..span.1];
    let mut tags = BTreeSet::new();
    let mut i = 0usize;
    while i + 3 < bytes.len() {
        if !(bytes[i] == b'.' && bytes[i + 1] == b'u' && bytes[i + 2] == b'8') {
            i += 1;
            continue;
        }
        let mut j = i + 3;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes.get(j) != Some(&b'(') {
            i += 1;
            continue;
        }
        j += 1;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if bytes[j..].starts_with(b"match")
            && bytes
                .get(j + 5)
                .is_some_and(|b| !b.is_ascii_alphanumeric() && *b != b'_')
        {
            // `.u8(match … { arm => N, … })` — collect the arm-result
            // literals between the match braces.
            if let Some(open) = bytes[j..].iter().position(|&b| b == b'{').map(|o| j + o) {
                let mut depth = 0usize;
                let mut k = open;
                let mut close = bytes.len();
                while k < bytes.len() {
                    match bytes[k] {
                        b'{' => depth += 1,
                        b'}' => {
                            depth -= 1;
                            if depth == 0 {
                                close = k;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                let mut k = open;
                while k + 1 < close {
                    if bytes[k] == b'=' && bytes[k + 1] == b'>' {
                        let mut d = k + 2;
                        while d < close && bytes[d].is_ascii_whitespace() {
                            d += 1;
                        }
                        let d0 = d;
                        let mut v = 0u64;
                        while d < close && bytes[d].is_ascii_digit() {
                            v = v * 10 + u64::from(bytes[d] - b'0');
                            d += 1;
                        }
                        let ends_ok = d >= close
                            || matches!(bytes[d], b',' | b'}' | b' ' | b'\n' | b'\t' | b'\r');
                        if d > d0 && ends_ok {
                            tags.insert(v);
                        }
                        k = d;
                    } else {
                        k += 1;
                    }
                }
            }
        } else {
            let d0 = j;
            let mut v = 0u64;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                v = v * 10 + u64::from(bytes[j] - b'0');
                j += 1;
            }
            if j > d0 {
                let mut k = j;
                while k < bytes.len() && bytes[k].is_ascii_whitespace() {
                    k += 1;
                }
                if bytes.get(k) == Some(&b')') {
                    tags.insert(v);
                }
            }
        }
        i += 1;
    }
    tags
}

/// Integer literals used as match-arm patterns (`N =>`) inside `span`.
fn int_match_arms(code: &str, span: (usize, usize)) -> BTreeSet<u64> {
    let bytes = &code.as_bytes()[span.0..span.1];
    let mut arms = BTreeSet::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        // A literal starting here must not continue an identifier or a
        // float/range (`x1`, `1.5`, `0..3`).
        if i > 0
            && (bytes[i - 1].is_ascii_alphanumeric()
                || bytes[i - 1] == b'_'
                || bytes[i - 1] == b'.')
        {
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            continue;
        }
        let mut v = 0u64;
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            v = v * 10 + u64::from(bytes[j] - b'0');
            j += 1;
        }
        let mut k = j;
        while k < bytes.len() && bytes[k].is_ascii_whitespace() {
            k += 1;
        }
        if bytes.get(k) == Some(&b'=') && bytes.get(k + 1) == Some(&b'>') {
            arms.insert(v);
        }
        i = j;
    }
    arms
}

/// Kind-tag pairing: each `const SNAP_KIND_*` must appear inside an
/// `Enc::with_header(...)` (or `enc.header(...)`) call and inside a
/// `dec.header(...)` call somewhere in its crate.
fn lint_kind_tags(files: &[FileCtx<'_>], idxs: &[usize], out: &mut Vec<Finding>) {
    struct KindUse {
        encoded: bool,
        decoded: bool,
        def: Option<(usize, usize)>, // (file index, line)
    }
    let mut kinds: BTreeMap<String, KindUse> = BTreeMap::new();

    for &i in idxs {
        let f = &files[i];
        let bytes = f.lexed.code.as_bytes();
        let mut pos = 0usize;
        while let Some(off) = find_ident(bytes, pos, b"SNAP_KIND_") {
            let start = off;
            let mut end = start;
            while end < bytes.len() && (bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_') {
                end += 1;
            }
            pos = end;
            let name = String::from_utf8_lossy(&bytes[start..end]).into_owned();
            let line = bytes[..start].iter().filter(|&&b| b == b'\n').count() + 1;
            if f.lexed.is_test_line(line) {
                continue;
            }
            let entry = kinds.entry(name).or_insert(KindUse {
                encoded: false,
                decoded: false,
                def: None,
            });
            match usage_context(bytes, start) {
                KindContext::Def => entry.def = Some((i, line)),
                KindContext::Encode => entry.encoded = true,
                KindContext::Decode => entry.decoded = true,
                KindContext::Other => {}
            }
        }
    }

    for (name, u) in kinds {
        let Some((fi, line)) = u.def else { continue };
        if !u.encoded {
            push(
                out,
                files[fi].path,
                line,
                "wire-variant-coverage",
                format!(
                    "kind tag `{name}` is never written via `Enc::with_header({name})` — \
                     a kind no encoder emits is dead, or its encoder forgot the header"
                ),
            );
        }
        if !u.decoded {
            push(
                out,
                files[fi].path,
                line,
                "wire-variant-coverage",
                format!(
                    "kind tag `{name}` is never checked via `dec.header({name})` — \
                     resuming the wrong snapshot kind would misdecode instead of \
                     failing with `BadKind`"
                ),
            );
        }
    }
}

enum KindContext {
    /// `const SNAP_KIND_X…` definition.
    Def,
    /// Inside `Enc::with_header(…)` / `enc*.header(…)`.
    Encode,
    /// Inside `dec*.header(…)`.
    Decode,
    /// Re-export, doc link, anything else.
    Other,
}

/// Classifies the occurrence of a SNAP_KIND ident starting at `start`.
fn usage_context(bytes: &[u8], start: usize) -> KindContext {
    // Walk left over whitespace.
    let mut i = start;
    while i > 0 && bytes[i - 1].is_ascii_whitespace() {
        i -= 1;
    }
    if i == 0 {
        return KindContext::Other;
    }
    // `const SNAP_KIND_X` — preceded by the `const` keyword.
    if is_word_before(bytes, i, b"const") {
        return KindContext::Def;
    }
    // `fnname(SNAP_KIND_X…` — classify by the call we're inside. Walk
    // left past an opening paren (possibly with other arguments — the
    // kind is always the first argument in this codebase).
    if bytes[i - 1] == b'(' {
        let call_end = i - 1;
        let mut j = call_end;
        while j > 0 && bytes[j - 1].is_ascii_whitespace() {
            j -= 1;
        }
        let mut s = j;
        while s > 0 && (bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_') {
            s -= 1;
        }
        let callee = &bytes[s..j];
        if callee == b"with_header" {
            return KindContext::Encode;
        }
        if callee == b"header" {
            // Receiver before the `.`: enc-ish writes, dec-ish checks.
            let mut r = s;
            while r > 0 && bytes[r - 1].is_ascii_whitespace() {
                r -= 1;
            }
            if r > 0 && bytes[r - 1] == b'.' {
                let mut rs = r - 1;
                while rs > 0 && (bytes[rs - 1].is_ascii_alphanumeric() || bytes[rs - 1] == b'_') {
                    rs -= 1;
                }
                let recv = &bytes[rs..r - 1];
                if recv.starts_with(b"dec") {
                    return KindContext::Decode;
                }
                if recv.starts_with(b"enc") {
                    return KindContext::Encode;
                }
            }
        }
    }
    KindContext::Other
}

/// True if the word ending (exclusive) at `end` is exactly `word`.
fn is_word_before(bytes: &[u8], end: usize, word: &[u8]) -> bool {
    if end < word.len() {
        return false;
    }
    let s = end - word.len();
    if &bytes[s..end] != word {
        return false;
    }
    s == 0 || !(bytes[s - 1].is_ascii_alphanumeric() || bytes[s - 1] == b'_')
}

/// Finds the next occurrence of an identifier starting with `prefix`
/// at or after `from`, returning its start offset.
fn find_ident(bytes: &[u8], from: usize, prefix: &[u8]) -> Option<usize> {
    let mut i = from;
    while i + prefix.len() <= bytes.len() {
        if &bytes[i..i + prefix.len()] == prefix {
            let boundary =
                i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
            if boundary {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse_items;

    fn run(files: &[(&str, &str)]) -> Vec<(String, String, usize)> {
        let lexed: Vec<_> = files.iter().map(|(_, s)| lex(s)).collect();
        let items: Vec<_> = lexed.iter().map(|l| parse_items(&l.code)).collect();
        let ctxs: Vec<FileCtx> = files
            .iter()
            .zip(lexed.iter().zip(items.iter()))
            .map(|(&(p, _), (l, it))| FileCtx {
                path: p,
                lexed: l,
                items: it,
            })
            .collect();
        lint_coverage(&ctxs)
            .into_iter()
            .map(|f| (f.rule.to_string(), f.path, f.line))
            .collect()
    }

    const GOOD_IMPL: &str = "pub struct Stats {\n    pub a: u64,\n    pub b: u64,\n}\nimpl snapshot::Snapshot for Stats {\n    fn encode(&self, enc: &mut Enc) {\n        enc.u64(self.a);\n        enc.u64(self.b);\n    }\n    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {\n        Ok(Stats { a: dec.u64()?, b: dec.u64()? })\n    }\n}\n";

    #[test]
    fn full_coverage_is_silent() {
        assert_eq!(run(&[("crates/x/src/snap.rs", GOOD_IMPL)]), vec![]);
    }

    #[test]
    fn missing_encode_field_flagged_at_field_line() {
        let src = "pub struct Stats {\n    pub a: u64,\n    pub b: u64,\n}\nimpl snapshot::Snapshot for Stats {\n    fn encode(&self, enc: &mut Enc) {\n        enc.u64(self.a);\n    }\n    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {\n        Ok(Stats { a: dec.u64()?, b: 0 })\n    }\n}\n";
        assert_eq!(
            run(&[("crates/x/src/snap.rs", src)]),
            vec![(
                "snapshot-field-coverage".into(),
                "crates/x/src/snap.rs".into(),
                3
            )]
        );
    }

    #[test]
    fn cross_file_impl_is_paired_within_the_crate() {
        let def = "pub struct Stats {\n    pub a: u64,\n    pub missing: u64,\n}\n";
        let im = "impl snapshot::Snapshot for Stats {\n    fn encode(&self, enc: &mut Enc) { enc.u64(self.a); }\n    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> { Ok(Stats { a: dec.u64()?, missing: 0 }) }\n}\n";
        let hits = run(&[("crates/x/src/types.rs", def), ("crates/x/src/snap.rs", im)]);
        assert_eq!(
            hits,
            vec![(
                "snapshot-field-coverage".into(),
                "crates/x/src/types.rs".into(),
                3
            )]
        );
        // Different crate: no pairing, no finding.
        assert_eq!(
            run(&[("crates/x/src/types.rs", def), ("crates/y/src/snap.rs", im),]),
            vec![]
        );
    }

    #[test]
    fn snapshot_state_impl_checks_both_bodies() {
        let src = "pub struct Router {\n    table: u64,\n    memo: u64,\n}\nimpl snapshot::SnapshotState for Router {\n    fn encode_state(&self, enc: &mut Enc) { self.table.encode(enc); }\n    fn restore_state(&mut self, dec: &mut Dec<'_>) -> Result<(), SnapError> {\n        self.table = u64::decode(dec)?;\n        Ok(())\n    }\n}\n";
        assert_eq!(
            run(&[("crates/x/src/r.rs", src)]),
            vec![(
                "snapshot-field-coverage".into(),
                "crates/x/src/r.rs".into(),
                3
            )]
        );
    }

    #[test]
    fn enum_variant_missing_from_decode_flagged() {
        let src = "pub enum Msg {\n    Join(u32),\n    Prune(u32),\n}\nimpl snapshot::Snapshot for Msg {\n    fn encode(&self, enc: &mut Enc) {\n        match self {\n            Msg::Join(g) => { enc.u8(0); enc.u32(*g); }\n            Msg::Prune(g) => { enc.u8(1); enc.u32(*g); }\n        }\n    }\n    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {\n        match dec.u8()? {\n            0 => Ok(Msg::Join(dec.u32()?)),\n            _ => Err(SnapError::Invalid(\"tag\")),\n        }\n    }\n}\n";
        let hits = run(&[("crates/x/src/msg.rs", src)]);
        // Variant `Prune` missing from decode, and tag 1 has no arm.
        assert!(hits.contains(&(
            "wire-variant-coverage".into(),
            "crates/x/src/msg.rs".into(),
            3
        )));
        assert_eq!(
            hits.iter()
                .filter(|(r, _, _)| r == "wire-variant-coverage")
                .count(),
            2
        );
    }

    #[test]
    fn tag_written_but_unmatched_is_flagged() {
        let src = "impl snapshot::Snapshot for Thing {\n    fn encode(&self, enc: &mut Enc) {\n        enc.u8(0);\n        enc.u8(1);\n    }\n    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {\n        match dec.u8()? {\n            0 => Ok(Thing),\n            _ => Err(SnapError::Invalid(\"tag\")),\n        }\n    }\n}\n";
        let hits = run(&[("crates/x/src/a.rs", src)]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, "wire-variant-coverage");
    }

    #[test]
    fn inline_match_tag_idiom_is_symmetric() {
        // `enc.u8(match self { … => N })` — the arm results are the
        // written tags; symmetric with decode's arms, so silent.
        let src = "impl snapshot::Snapshot for Kind {\n    fn encode(&self, enc: &mut Enc) {\n        enc.u8(match self {\n            Kind::A => 0,\n            Kind::B => 1,\n        });\n    }\n    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {\n        match dec.u8()? {\n            0 => Ok(Kind::A),\n            1 => Ok(Kind::B),\n            _ => Err(SnapError::Invalid(\"tag\")),\n        }\n    }\n}\n";
        assert_eq!(run(&[("crates/x/src/a.rs", src)]), vec![]);
        // Drop arm `Kind::B => 1` from encode: decode arm 1 goes dead.
        let broken = src.replace("            Kind::B => 1,\n", "");
        let hits = run(&[("crates/x/src/a.rs", broken.as_str())]);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].0, "wire-variant-coverage");
    }

    #[test]
    fn cast_based_encode_skips_tag_symmetry() {
        let src = "impl snapshot::Snapshot for Kind {\n    fn encode(&self, enc: &mut Enc) { enc.u8(*self as u8); }\n    fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> {\n        match dec.u8()? {\n            0 => Ok(Kind::A),\n            _ => Err(SnapError::Invalid(\"tag\")),\n        }\n    }\n}\n";
        assert_eq!(run(&[("crates/x/src/a.rs", src)]), vec![]);
    }

    #[test]
    fn wire_module_enum_without_codec_flagged() {
        let src = "pub enum Action {\n    Go,\n    Stop,\n}\n";
        let hits = run(&[("crates/x/src/msg.rs", src)]);
        assert_eq!(
            hits,
            vec![(
                "wire-variant-coverage".into(),
                "crates/x/src/msg.rs".into(),
                1
            )]
        );
        // Same enum outside a wire module: silent.
        assert_eq!(run(&[("crates/x/src/other.rs", src)]), vec![]);
        // With both serde derives: silent.
        let serde_src =
            "#[derive(Serialize, Deserialize)]\npub enum Action {\n    Go,\n    Stop,\n}\n";
        assert_eq!(run(&[("crates/x/src/msg.rs", serde_src)]), vec![]);
    }

    #[test]
    fn kind_tag_without_decode_check_flagged() {
        let src = "pub const SNAP_KIND_FOO: u16 = 9;\nimpl T {\n    fn checkpoint(&self) {\n        let mut enc = snapshot::Enc::with_header(SNAP_KIND_FOO);\n    }\n}\n";
        let hits = run(&[("crates/x/src/a.rs", src)]);
        assert_eq!(
            hits,
            vec![(
                "wire-variant-coverage".into(),
                "crates/x/src/a.rs".into(),
                1
            )]
        );
        // Paired in another file of the same crate: silent.
        let dec_side = "fn resume(dec: &mut Dec<'_>) {\n    dec.header(SNAP_KIND_FOO);\n}\n";
        assert_eq!(
            run(&[("crates/x/src/a.rs", src), ("crates/x/src/b.rs", dec_side)]),
            vec![]
        );
    }

    #[test]
    fn cfg_test_impls_and_types_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    struct Probe {\n        uncovered: u64,\n    }\n    impl snapshot::Snapshot for Probe {\n        fn encode(&self, enc: &mut Enc) {}\n        fn decode(dec: &mut Dec<'_>) -> Result<Self, SnapError> { Ok(Probe { uncovered: 0 }) }\n    }\n}\n";
        assert_eq!(run(&[("crates/x/src/a.rs", src)]), vec![]);
    }
}
