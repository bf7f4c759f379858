//! `#[derive(Snapshot)]`: the canonical snapshot codec of a plain-data
//! type, field by field. Re-exported as `snapshot::Snapshot`.
//!
//! * A struct with named fields, or a tuple struct, encodes each field
//!   with `Snapshot::encode` in declaration order and decodes them in
//!   the same order.
//! * An enum writes its variant's declaration index as a `u8`, then the
//!   variant's fields the same way. Any other tag decodes to
//!   `SnapError::Invalid("<Type> tag")`.
//!
//! There are no helper attributes and no options. A type that skips or
//! recomputes a field, checks more than the tag on decode, or writes
//! its fields in another order keeps a hand-written impl, where the
//! reason can be read. Generic types and unions are refused with a
//! compile error.
//!
//! The input is read straight from the `proc_macro` token stream (the
//! build has no `syn` or `quote`).

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The fields of a struct or of one enum variant.
enum Fields {
    /// `{ a: A, b: B }`: the field names.
    Named(Vec<String>),
    /// `(A, B)`: the arity.
    Tuple(usize),
    /// A unit variant.
    Unit,
}

enum Body {
    Struct(Fields),
    Enum(Vec<(String, Fields)>),
}

struct Cursor {
    toks: Vec<TokenTree>,
    i: usize,
}

impl Cursor {
    fn new(ts: TokenStream) -> Self {
        Cursor {
            toks: ts.into_iter().collect(),
            i: 0,
        }
    }

    fn peek(&self) -> Option<&TokenTree> {
        self.toks.get(self.i)
    }

    fn next(&mut self) -> Option<TokenTree> {
        let t = self.toks.get(self.i).cloned();
        self.i += usize::from(t.is_some());
        t
    }

    fn at_end(&self) -> bool {
        self.i >= self.toks.len()
    }

    fn peek_punct(&self, c: char) -> bool {
        matches!(self.peek(), Some(TokenTree::Punct(p)) if p.as_char() == c)
    }

    /// Skips outer attributes (`#[...]`, doc comments included).
    fn skip_attrs(&mut self) {
        while self.peek_punct('#') {
            self.next();
            self.next();
        }
    }

    /// Skips a `pub` / `pub(...)` visibility marker.
    fn skip_vis(&mut self) {
        if matches!(self.peek(), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            self.next();
            if matches!(self.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                self.next();
            }
        }
    }

    fn ident(&mut self) -> Result<String, String> {
        match self.next() {
            Some(TokenTree::Ident(id)) => Ok(id.to_string()),
            other => Err(format!("expected an identifier, found {other:?}")),
        }
    }

    /// Skips one type and the top-level comma after it, if any. `<`/`>`
    /// depth is tracked so `Map<K, V>` stays whole; the `>` of `->` is
    /// not a closing bracket.
    fn skip_type(&mut self) {
        let (mut depth, mut arrow) = (0i32, false);
        while let Some(t) = self.next() {
            if let TokenTree::Punct(p) = &t {
                match p.as_char() {
                    '<' => depth += 1,
                    '>' if !arrow => depth -= 1,
                    ',' if depth == 0 => return,
                    _ => {}
                }
                arrow = p.as_char() == '-';
            } else {
                arrow = false;
            }
        }
    }
}

/// The fields inside a `{ ... }` or `( ... )` group.
fn fields(group: &proc_macro::Group) -> Result<Fields, String> {
    let mut c = Cursor::new(group.stream());
    if group.delimiter() == Delimiter::Parenthesis {
        let mut arity = 0;
        while !c.at_end() {
            c.skip_attrs();
            c.skip_vis();
            c.skip_type();
            arity += 1;
        }
        return Ok(Fields::Tuple(arity));
    }
    let mut names = Vec::new();
    while !c.at_end() {
        c.skip_attrs();
        c.skip_vis();
        let name = c.ident()?;
        if !c.peek_punct(':') {
            return Err(format!("expected `:` after field `{name}`"));
        }
        c.next();
        c.skip_type();
        names.push(name);
    }
    Ok(Fields::Named(names))
}

fn parse(ts: TokenStream) -> Result<(String, Body), String> {
    let mut c = Cursor::new(ts);
    c.skip_attrs();
    c.skip_vis();
    let kw = c.ident()?;
    let name = c.ident()?;
    if c.peek_punct('<') {
        return Err(format!(
            "`{name}` is generic: write its Snapshot impl by hand"
        ));
    }
    let group = match c.next() {
        Some(TokenTree::Group(g)) if g.delimiter() != Delimiter::Bracket => g,
        _ if kw == "struct" => return Err(format!("`{name}` has no fields to encode")),
        other => return Err(format!("unexpected {other:?} after `{name}`")),
    };
    match kw.as_str() {
        "struct" => Ok((name, Body::Struct(fields(&group)?))),
        "enum" => {
            let mut vc = Cursor::new(group.stream());
            let mut variants = Vec::new();
            while !vc.at_end() {
                vc.skip_attrs();
                let vname = vc.ident()?;
                let shape = match vc.peek() {
                    Some(TokenTree::Group(g)) => {
                        let shape = fields(g)?;
                        vc.next();
                        shape
                    }
                    _ => Fields::Unit,
                };
                if vc.peek_punct('=') {
                    return Err(format!(
                        "`{name}::{vname}` has an explicit discriminant; the tag is the declaration index"
                    ));
                }
                vc.next(); // the separating comma, if any
                variants.push((vname, shape));
            }
            Ok((name, Body::Enum(variants)))
        }
        other => Err(format!(
            "`{other} {name}`: only structs and enums derive Snapshot"
        )),
    }
}

/// The pattern binding `fields` after `path`, and the statements
/// encoding each binding in order.
fn bind(path: &str, fields: &Fields) -> (String, String) {
    let names: Vec<String> = match fields {
        Fields::Named(names) => names.clone(),
        Fields::Tuple(n) => (0..*n).map(|i| format!("__f{i}")).collect(),
        Fields::Unit => Vec::new(),
    };
    let encode: String = names
        .iter()
        .map(|f| format!("::snapshot::Snapshot::encode({f}, __enc);"))
        .collect();
    let pattern = match fields {
        Fields::Named(_) => format!("{path} {{ {} }}", names.join(", ")),
        Fields::Tuple(_) => format!("{path}({})", names.join(", ")),
        Fields::Unit => path.to_string(),
    };
    (pattern, encode)
}

/// The expression building `path` from fields decoded in order.
fn build(path: &str, fields: &Fields) -> String {
    let decode = "::snapshot::Snapshot::decode(__dec)?";
    match fields {
        Fields::Named(names) => {
            let inits: Vec<String> = names.iter().map(|f| format!("{f}: {decode}")).collect();
            format!("{path} {{ {} }}", inits.join(", "))
        }
        Fields::Tuple(n) => format!("{path}({})", vec![decode; *n].join(", ")),
        Fields::Unit => path.to_string(),
    }
}

fn expand(name: &str, body: &Body) -> String {
    let (encode, decode) = match body {
        Body::Struct(fields) => {
            let (pattern, encode) = bind("Self", fields);
            (
                format!("let {pattern} = self; {encode}"),
                format!("Ok({})", build("Self", fields)),
            )
        }
        Body::Enum(variants) => {
            let mut enc_arms = String::new();
            let mut dec_arms = String::new();
            for (tag, (vname, fields)) in variants.iter().enumerate() {
                let path = format!("Self::{vname}");
                let (pattern, encode) = bind(&path, fields);
                enc_arms += &format!("{pattern} => {{ __enc.u8({tag}); {encode} }}");
                dec_arms += &format!("{tag} => Ok({}),", build(&path, fields));
            }
            (
                format!("match self {{ {enc_arms} }}"),
                format!(
                    "match __dec.u8()? {{ {dec_arms} \
                     _ => Err(::snapshot::SnapError::Invalid(\"{name} tag\")), }}"
                ),
            )
        }
    };
    format!(
        "#[automatically_derived] \
         impl ::snapshot::Snapshot for {name} {{ \
             fn encode(&self, __enc: &mut ::snapshot::Enc) {{ {encode} }} \
             fn decode(__dec: &mut ::snapshot::Dec<'_>) \
                 -> ::core::result::Result<Self, ::snapshot::SnapError> {{ {decode} }} \
         }}"
    )
}

/// Derives `snapshot::Snapshot`; see the crate docs for the encoding.
#[proc_macro_derive(Snapshot)]
pub fn derive_snapshot(item: TokenStream) -> TokenStream {
    let code = match parse(item) {
        Ok((name, body)) => expand(&name, &body),
        Err(msg) => format!("::core::compile_error!({msg:?});"),
    };
    code.parse().unwrap_or_default()
}
