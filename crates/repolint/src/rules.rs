//! The lint rules.
//!
//! All rules scan the lexed *code view* (comments and literal contents
//! blanked), so tokens inside strings or docs never fire. Findings on
//! `#[cfg(test)]` lines are dropped before allow processing — panicking
//! and ad-hoc containers are idiomatic in unit tests.
//!
//! | rule            | scope                                   | forbids |
//! |-----------------|-----------------------------------------|---------|
//! | `wall-clock`    | every crate                             | `Instant::now`, `SystemTime::now` |
//! | `unordered-iter`| deterministic crates                    | iterating `HashMap`/`HashSet` |
//! | `ambient-rng`   | every crate                             | `thread_rng`, `rand::random`, `OsRng`, `from_entropy` |
//! | `raw-spawn`     | all but `bench::par`                    | `thread::spawn`, `thread::scope` |
//! | `panicky-decode`| wire/message decode modules             | `unwrap`/`expect`/panicking macros/indexing |
//! | `hot-alloc`     | per-event hot paths (RIB, BGMP table)   | `clone()` of `AsPath`/`Route`/tree entries |

use std::collections::BTreeSet;

use crate::findings::Finding;
use crate::lexer::Lexed;

/// Crates whose state must iterate in a deterministic order: they feed
/// the reproducible experiment pipeline (byte-identical CSV/JSON at any
/// `--threads`).
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "snapshot",
    "simnet",
    "masc",
    "bgmp",
    "bgp",
    "bier",
    "core",
    "topology",
    "mcast-addr",
    "bench",
    "migp",
    "metrics",
];

/// Modules that decode peer-controlled input: a malformed frame must
/// surface as a typed error, never a panic.
pub const DECODE_PATHS: &[&str] = &[
    "crates/snapshot/src/codec.rs",
    "crates/bgp/src/msg.rs",
    "crates/bgmp/src/msg.rs",
    "crates/bier/src/msg.rs",
    "crates/masc/src/msg.rs",
    "crates/actors/src/codec.rs",
    "crates/actors/src/wire.rs",
];

/// The one blessed home for raw OS threads: the deterministic
/// fork/join harness.
pub const SPAWN_OK_PATHS: &[&str] = &["crates/bench/src/par.rs"];

/// Per-event hot paths with an allocation budget: the BGP decision
/// process and the BGMP tree table run once per simulated event, and
/// their entry types are deliberately slab-stored and interned.
/// Cloning one re-allocates what the arena exists to share.
pub const HOT_PATHS: &[&str] = &[
    "crates/bgp/src/rib.rs",
    "crates/bgmp/src/router.rs",
    "crates/bgmp/src/entry.rs",
];

/// Types whose `clone()` allocates in a hot path: `AsPath` is interned
/// (clone the handle, not a rebuilt vector), the rest are slab-resident
/// tree-table state (pass the slab key instead).
const HOT_TYPES: &[&str] = &[
    "AsPath",
    "Route",
    "GroupEntry",
    "SgEntry",
    "ForwardingTable",
];

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Keywords that may directly precede `[` without forming an index
/// expression (`return [a, b]`, `break [..]`, …).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "return", "break", "in", "if", "else", "match", "while", "loop", "as", "mut", "ref", "move",
    "dyn", "impl", "let", "const", "static", "use", "pub", "where", "yield",
];

/// Crate name from a workspace-relative path (`crates/<name>/…`).
fn crate_of(path: &str) -> Option<&str> {
    let mut seg = path.split('/');
    if seg.next() == Some("crates") {
        seg.next()
    } else {
        None
    }
}

/// Runs every applicable rule; returns raw findings (allows not yet
/// applied, test lines already dropped).
pub fn lint_code(path: &str, lexed: &Lexed) -> Vec<Finding> {
    let code = lexed.code.as_bytes();
    let toks = Tokens::new(code);
    let mut out = Vec::new();

    rule_wall_clock(path, &toks, &mut out);
    rule_ambient_rng(path, &toks, &mut out);
    rule_raw_spawn(path, &toks, &mut out);
    if crate_of(path).is_some_and(|c| DETERMINISTIC_CRATES.contains(&c)) {
        rule_unordered_iter(path, &toks, &mut out);
    }
    if DECODE_PATHS.contains(&path) {
        rule_panicky_decode(path, &toks, &mut out);
    }
    if HOT_PATHS.contains(&path) {
        rule_hot_alloc(path, &toks, &mut out);
    }

    out.retain(|f| !lexed.is_test_line(f.line));
    out.sort();
    out
}

// ---------------------------------------------------------------------
// Token scaffolding
// ---------------------------------------------------------------------

/// Identifier tokens of the code view, with byte spans.
struct Tokens<'a> {
    code: &'a [u8],
    /// (start, end) byte spans of every identifier, in order.
    idents: Vec<(usize, usize)>,
}

fn is_ident_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

impl<'a> Tokens<'a> {
    fn new(code: &'a [u8]) -> Self {
        let mut idents = Vec::new();
        let mut i = 0usize;
        while i < code.len() {
            if is_ident_char(code[i]) {
                let s = i;
                while i < code.len() && is_ident_char(code[i]) {
                    i += 1;
                }
                idents.push((s, i));
            } else {
                i += 1;
            }
        }
        Tokens { code, idents }
    }

    fn text(&self, span: (usize, usize)) -> &str {
        std::str::from_utf8(&self.code[span.0..span.1]).unwrap_or("")
    }

    fn line_of(&self, pos: usize) -> usize {
        self.code[..pos].iter().filter(|&&b| b == b'\n').count() + 1
    }

    /// Index of the previous non-whitespace byte before `pos`.
    fn prev_ns(&self, pos: usize) -> Option<usize> {
        let mut i = pos;
        while i > 0 {
            i -= 1;
            if !self.code[i].is_ascii_whitespace() {
                return Some(i);
            }
        }
        None
    }

    /// Index of the next non-whitespace byte at or after `pos`.
    fn next_ns(&self, pos: usize) -> Option<usize> {
        (pos..self.code.len()).find(|&i| !self.code[i].is_ascii_whitespace())
    }

    /// The identifier whose final byte sits at `end` (inclusive).
    fn ident_ending_at(&self, end: usize) -> Option<(usize, usize)> {
        if !is_ident_char(self.code[end]) {
            return None;
        }
        let mut s = end;
        while s > 0 && is_ident_char(self.code[s - 1]) {
            s -= 1;
        }
        Some((s, end + 1))
    }

    /// True if the token just before `pos` (skipping whitespace) is
    /// `::` immediately preceded by the identifier `name`.
    fn preceded_by_path(&self, pos: usize, name: &str) -> bool {
        let Some(c2) = self.prev_ns(pos) else {
            return false;
        };
        if self.code[c2] != b':' || c2 == 0 || self.code[c2 - 1] != b':' {
            return false;
        }
        let Some(ie) = self.prev_ns(c2 - 1) else {
            return false;
        };
        self.ident_ending_at(ie)
            .is_some_and(|sp| self.text(sp) == name)
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

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

fn rule_wall_clock(path: &str, t: &Tokens, out: &mut Vec<Finding>) {
    for &(s, e) in &t.idents {
        let name = t.text((s, e));
        if name == "now"
            && (t.preceded_by_path(s, "Instant") || t.preceded_by_path(s, "SystemTime"))
        {
            push(
                out,
                path,
                t.line_of(s),
                "wall-clock",
                "wall-clock read — all time must flow from the simulation/harness clock \
                 (`simnet::Engine` in sims, the tick counter in actors)"
                    .to_string(),
            );
        }
    }
}

fn rule_ambient_rng(path: &str, t: &Tokens, out: &mut Vec<Finding>) {
    for &(s, e) in &t.idents {
        let name = t.text((s, e));
        let hit = match name {
            "thread_rng" | "OsRng" | "from_entropy" => true,
            "random" => t.preceded_by_path(s, "rand"),
            _ => false,
        };
        if hit {
            push(
                out,
                path,
                t.line_of(s),
                "ambient-rng",
                format!(
                    "ambient randomness (`{name}`) — all randomness must derive from the \
                     per-task seed (`seed ^ splitmix64(task_index)`)"
                ),
            );
        }
    }
}

fn rule_raw_spawn(path: &str, t: &Tokens, out: &mut Vec<Finding>) {
    if SPAWN_OK_PATHS.contains(&path) {
        return;
    }
    for &(s, e) in &t.idents {
        let name = t.text((s, e));
        if (name == "spawn" || name == "scope") && t.preceded_by_path(s, "thread") {
            push(
                out,
                path,
                t.line_of(s),
                "raw-spawn",
                format!(
                    "raw `thread::{name}` — OS-thread fan-out lives in `bench::par::run_tasks` \
                     (deterministic task-order merge); use it or `tokio::spawn`"
                ),
            );
        }
    }
}

fn rule_unordered_iter(path: &str, t: &Tokens, out: &mut Vec<Finding>) {
    // Pass 1: names bound to HashMap/HashSet in this file (let
    // bindings, struct fields — `name: HashMap<…>` or `name = HashMap::…`).
    let mut hash_names: BTreeSet<String> = BTreeSet::new();
    for &(s, e) in &t.idents {
        let name = t.text((s, e));
        if name != "HashMap" && name != "HashSet" {
            continue;
        }
        if let Some(owner) = binding_name(t, s) {
            hash_names.insert(owner);
        }
    }

    let flag = |out: &mut Vec<Finding>, line: usize, name: &str, how: &str| {
        push(
            out,
            path,
            line,
            "unordered-iter",
            format!(
                "iteration over hash container `{name}` ({how}) — hash order is \
                 nondeterministic; use BTreeMap/BTreeSet/Vec, or keep the container and \
                 restrict it to keyed lookups"
            ),
        );
    };

    // Pass 2: iteration methods on a tracked name.
    for &(s, e) in &t.idents {
        let name = t.text((s, e));
        if !ITER_METHODS.contains(&name) {
            continue;
        }
        // Must be a method call: `.name(`.
        let Some(dot) = t.prev_ns(s) else { continue };
        if t.code[dot] != b'.' {
            continue;
        }
        if t.next_ns(e).map(|i| t.code[i]) != Some(b'(') {
            continue;
        }
        let Some(recv_end) = t.prev_ns(dot) else {
            continue;
        };
        let Some(recv) = t.ident_ending_at(recv_end) else {
            continue;
        };
        let recv_name = t.text(recv);
        if hash_names.contains(recv_name) {
            flag(out, t.line_of(s), recv_name, &format!(".{name}()"));
        }
    }

    // Pass 3: `for pat in [&[mut]] name { …` / `for pat in self.name {`.
    for (k, &(s, e)) in t.idents.iter().enumerate() {
        if t.text((s, e)) != "for" {
            continue;
        }
        // Find the `in` among upcoming idents (patterns are short).
        let Some(&(ins, ine)) = t.idents[k + 1..]
            .iter()
            .take(8)
            .find(|&&sp| t.text(sp) == "in")
        else {
            continue;
        };
        let _ = ine;
        // Expression runs to the loop body brace.
        let Some(brace) = (ins..t.code.len()).find(|&i| t.code[i] == b'{') else {
            continue;
        };
        let expr = std::str::from_utf8(&t.code[ins + 2..brace]).unwrap_or("");
        let expr = expr.trim().trim_start_matches('&').trim();
        let expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
        // Only simple ident chains (`name`, `self.name`); calls are
        // covered by pass 2.
        if !expr
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            || expr.is_empty()
        {
            continue;
        }
        let base = expr.rsplit('.').next().unwrap_or(expr);
        if hash_names.contains(base) {
            flag(out, t.line_of(s), base, "for-loop");
        }
    }
}

/// For a `HashMap`/`HashSet` type token starting at `s`, walks left to
/// the identifier the container is bound to, if any: handles
/// `name: HashMap<…>`, `name: std::collections::HashMap<…>`, and
/// `name = HashMap::new()`.
fn binding_name(t: &Tokens, s: usize) -> Option<String> {
    let mut at = s;
    // Strip a leading `path::` chain.
    loop {
        let p = t.prev_ns(at)?;
        if t.code[p] == b':' && p > 0 && t.code[p - 1] == b':' {
            let ie = t.prev_ns(p - 1)?;
            let sp = t.ident_ending_at(ie)?;
            at = sp.0;
        } else {
            break;
        }
    }
    let p = t.prev_ns(at)?;
    match t.code[p] {
        // `name : HashMap<…>` — single colon only.
        b':' if p > 0 && t.code[p - 1] != b':' => {
            let ie = t.prev_ns(p)?;
            let sp = t.ident_ending_at(ie)?;
            let name = t.text(sp);
            (!name.is_empty()).then(|| name.to_string())
        }
        // `name = HashMap::…` — plain assignment only.
        b'=' if p > 0 && !matches!(t.code[p - 1], b'=' | b'<' | b'>' | b'!' | b'+') => {
            let ie = t.prev_ns(p)?;
            let sp = t.ident_ending_at(ie)?;
            let name = t.text(sp);
            (name != "let" && !name.is_empty()).then(|| name.to_string())
        }
        _ => None,
    }
}

fn rule_panicky_decode(path: &str, t: &Tokens, out: &mut Vec<Finding>) {
    for &(s, e) in &t.idents {
        let name = t.text((s, e));
        // `.unwrap()` / `.expect(…)`.
        if name == "unwrap" || name == "expect" {
            let is_method = t.prev_ns(s).map(|i| t.code[i]) == Some(b'.')
                && t.next_ns(e).map(|i| t.code[i]) == Some(b'(');
            if is_method {
                push(
                    out,
                    path,
                    t.line_of(s),
                    "panicky-decode",
                    format!(
                        "`.{name}()` in a decode path — malformed peer input must return a \
                         typed error (`CodecError`-style), never panic"
                    ),
                );
            }
            continue;
        }
        // Panicking macros.
        if PANIC_MACROS.contains(&name) && t.next_ns(e).map(|i| t.code[i]) == Some(b'!') {
            push(
                out,
                path,
                t.line_of(s),
                "panicky-decode",
                format!(
                    "`{name}!` in a decode path — malformed peer input must return a typed \
                     error, never panic"
                ),
            );
        }
    }
    // Index expressions: `expr[…]` can panic on out-of-range input.
    for (i, &b) in t.code.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = t.code[i - 1];
        let indexes = if prev == b')' || prev == b']' {
            true
        } else if is_ident_char(prev) {
            // Not a keyword (`return [` …) and not a macro (`vec![` has
            // `!` before `[`, already excluded by is_ident_char).
            t.ident_ending_at(i - 1)
                .map(|sp| t.text(sp))
                .is_some_and(|id| !NON_INDEX_KEYWORDS.contains(&id))
        } else {
            false
        };
        if indexes {
            push(
                out,
                path,
                t.line_of(i),
                "panicky-decode",
                "index expression in a decode path — slicing panics on short input; use \
                 `.get(..)` and return a typed error"
                    .to_string(),
            );
        }
    }
}

/// `hot-alloc`: no `clone()` of interned/slab-backed state in the
/// per-event hot paths. Detection is lexical, like `unordered-iter`:
/// pass 1 collects names bound to a hot type (`x: AsPath`,
/// `e = GroupEntry::…`); pass 2 flags `.clone()` whose receiver is a
/// tracked name, the conventional `as_path` field, or a
/// `Type::clone(…)` UFCS call on a hot type. Untyped closure
/// parameters are deliberately not chased — the rule aims at the easy
/// regression (reintroducing an owned copy of arena state), not at
/// whole-program type inference.
fn rule_hot_alloc(path: &str, t: &Tokens, out: &mut Vec<Finding>) {
    let mut hot_names: BTreeSet<String> = BTreeSet::new();
    for &(s, e) in &t.idents {
        if !HOT_TYPES.contains(&t.text((s, e))) {
            continue;
        }
        if let Some(owner) = binding_name(t, s) {
            hot_names.insert(owner);
        }
    }

    let flag = |out: &mut Vec<Finding>, line: usize, what: &str| {
        push(
            out,
            path,
            line,
            "hot-alloc",
            format!(
                "`clone()` of `{what}` in a per-event hot path — AS paths are interned and \
                 tree entries slab-resident; clone the Arc handle / pass the slab key, or \
                 borrow"
            ),
        );
    };

    for &(s, e) in &t.idents {
        if t.text((s, e)) != "clone" {
            continue;
        }
        if t.next_ns(e).map(|i| t.code[i]) != Some(b'(') {
            continue;
        }
        // UFCS: `AsPath::clone(&x)` and friends.
        if let Some(ty) = HOT_TYPES.iter().find(|ty| t.preceded_by_path(s, ty)) {
            flag(out, t.line_of(s), ty);
            continue;
        }
        // Method call: `.clone()` on a tracked receiver.
        let Some(dot) = t.prev_ns(s) else { continue };
        if t.code[dot] != b'.' {
            continue;
        }
        let Some(recv_end) = t.prev_ns(dot) else {
            continue;
        };
        let Some(recv) = t.ident_ending_at(recv_end) else {
            continue;
        };
        let recv_name = t.text(recv);
        if hot_names.contains(recv_name) || recv_name == "as_path" {
            flag(out, t.line_of(s), recv_name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        lint_code(path, &lex(src))
    }

    #[test]
    fn wall_clock_fires_anywhere() {
        let f = run(
            "crates/migp/src/x.rs",
            "fn f() { let t = std::time::Instant::now(); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
    }

    #[test]
    fn keyed_lookup_is_legal() {
        let src = "use std::collections::HashMap;\nstruct S { m: HashMap<u32, u32> }\nimpl S { fn g(&self) -> Option<&u32> { self.m.get(&1) } }\n";
        assert!(run("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn hash_iteration_flagged_in_deterministic_crate_only() {
        let src = "fn f(m: HashMap<u32, u32>) { for k in m.keys() { let _ = k; } }\n";
        assert_eq!(run("crates/simnet/src/x.rs", src).len(), 1);
        assert!(run("crates/repolint/src/x.rs", src).is_empty());
    }

    #[test]
    fn for_loop_over_hash_field_flagged() {
        let src = "struct S { m: HashSet<u32> }\nimpl S { fn f(&self) { for k in &self.m { let _ = k; } } }\n";
        let f = run("crates/bgp/src/x.rs", src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("for-loop"));
    }

    #[test]
    fn indexing_in_decode_path() {
        let f = run("crates/bgp/src/msg.rs", "fn d(b: &[u8]) -> u8 { b[0] }\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "panicky-decode");
    }

    #[test]
    fn vec_macro_and_array_literal_not_indexing() {
        let src = "fn d() { let v = vec![0u8; 4]; let a = [1, 2]; let _ = (v, a); }\n";
        assert!(run("crates/bgp/src/msg.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_code_is_exempt() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let x: Option<u8> = None; x.unwrap(); }\n}\n";
        assert!(run("crates/bgp/src/msg.rs", src).is_empty());
    }

    #[test]
    fn raw_spawn_allowed_only_in_bench_par() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(run("crates/core/src/x.rs", src).len(), 1);
        assert!(run("crates/bench/src/par.rs", src).is_empty());
        // The engine is one thread: a scoped fan-out there is flagged.
        let scoped = "fn f() { std::thread::scope(|s| { s.spawn(|| {}); }); }\n";
        let f = run("crates/simnet/src/engine.rs", scoped);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "raw-spawn");
    }

    #[test]
    fn hot_alloc_flags_typed_clones_in_hot_paths_only() {
        let src = "fn f(route: Route) -> Route { route.clone() }\n";
        let f = run("crates/bgp/src/rib.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "hot-alloc");
        // Same source outside the hot-path list: silent.
        assert!(run("crates/bgp/src/speaker.rs", src).is_empty());
    }

    #[test]
    fn hot_alloc_ignores_untyped_and_cold_clones() {
        // Closure param (no type ascription) and a non-hot type: both
        // out of scope by design.
        let src = "fn f(v: Vec<u32>) { let _ = v.clone(); let g = |r| r; let _ = g(1); }\n";
        assert!(run("crates/bgmp/src/router.rs", src).is_empty());
    }

    #[test]
    fn ambient_rng_flagged() {
        let f = run(
            "crates/masc/src/x.rs",
            "fn f() { let r = rand::random::<u64>(); }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "ambient-rng");
    }
}
