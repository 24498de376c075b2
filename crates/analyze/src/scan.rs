//! Item/expression scanner: turns a lexed file into a `FileModel` — lock
//! fields, map-typed fields, functions with ordered event streams
//! (acquisitions, calls, I/O, determinism hazards), attributes, and
//! suppression comments.
//!
//! Two phases: `scan_decls` collects declarations (struct fields,
//! attributes, suppressions) per file; once every file's declarations are
//! pooled into a `FieldTable`, `scan_bodies` extracts function bodies,
//! resolving lock receivers against the global table.

use crate::lexer::{lex, Comment, Tok, Token};
use std::collections::{HashMap, HashSet};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LockKind {
    Mutex,
    RwLock,
}

#[derive(Debug, Clone)]
pub struct LockField {
    pub strukt: String,
    pub field: String,
    pub kind: LockKind,
    /// Type names inside the lock's type arguments (`Mutex<Client>` ->
    /// `Client`): what a guard of this lock hands out.
    pub guarded: Vec<String>,
}

#[derive(Debug, Clone)]
pub struct MapField {
    pub strukt: String,
    pub field: String,
}

#[derive(Debug, Clone)]
pub struct AllowAttr {
    pub line: u32,
    pub what: String,
}

#[derive(Debug, Clone)]
pub struct Suppression {
    pub line: u32,
    pub lint: String,
    pub reason: String,
}

#[derive(Debug, Clone)]
pub struct BadSuppression {
    pub line: u32,
}

/// How a call site names its callee — determines whether lock/I/O
/// summaries propagate through it (see DESIGN.md §11 false-positive
/// policy: method calls through arbitrary receivers do not propagate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallKind {
    /// `foo(..)` — resolved against free functions.
    Bare,
    /// `self.foo(..)` — resolved against the enclosing impl type.
    SelfMethod,
    /// `Type::foo(..)` — resolved against `impl Type`.
    Qualified(String),
    /// `expr.foo(..)` — recorded, never propagated.
    OtherMethod,
}

#[derive(Debug, Clone)]
pub enum Event {
    /// A resolved lock acquisition; `held` is what was already held.
    Acquire {
        lock: String,
        line: u32,
        held: Vec<String>,
    },
    /// A blocking filesystem/socket operation (open/bind/connect/fs op).
    Io {
        what: String,
        line: u32,
        held: Vec<String>,
    },
    Call {
        name: String,
        kind: CallKind,
        line: u32,
        held: Vec<String>,
    },
    /// A live guard's value handed on: as the receiver of `method`, or
    /// (`None`) as an argument to a call, closures included, whose body
    /// the scanner cannot see. `types` are the lock's guarded types.
    GuardUse {
        types: Vec<String>,
        method: Option<String>,
        line: u32,
        held: Vec<String>,
    },
    /// Iteration over a HashMap/HashSet-typed field or local.
    MapIter {
        recv: String,
        method: String,
        line: u32,
    },
    TimeNow {
        what: String,
        line: u32,
    },
    Random {
        what: String,
        line: u32,
    },
}

#[derive(Debug)]
pub struct Function {
    pub name: String,
    pub impl_type: Option<String>,
    pub line: u32,
    pub in_test: bool,
    pub mentions_faults: bool,
    /// Token indices of the body, excluding the outer braces.
    pub body: (usize, usize),
    pub events: Vec<Event>,
}

#[derive(Debug)]
pub struct FileModel {
    pub rel: String,
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
    pub lock_fields: Vec<LockField>,
    pub map_fields: Vec<MapField>,
    pub has_forbid_unsafe: bool,
    pub allow_attrs: Vec<AllowAttr>,
    pub suppressions: Vec<Suppression>,
    pub bad_suppressions: Vec<BadSuppression>,
    pub functions: Vec<Function>,
    /// True when the file lives under tests/, benches/, or examples/.
    pub is_test_code: bool,
}

/// Global pool of lock- and map-typed struct fields across the scan set.
#[derive(Debug, Default)]
pub struct FieldTable {
    by_struct: HashMap<(String, String), LockKind>,
    guarded: HashMap<(String, String), Vec<String>>,
    by_name: HashMap<String, Vec<(String, LockKind)>>,
    map_structs: HashSet<(String, String)>,
    map_names: HashSet<String>,
}

impl FieldTable {
    pub fn build(models: &[FileModel]) -> FieldTable {
        let mut t = FieldTable::default();
        for m in models {
            for lf in &m.lock_fields {
                t.by_struct
                    .insert((lf.strukt.clone(), lf.field.clone()), lf.kind);
                t.guarded
                    .insert((lf.strukt.clone(), lf.field.clone()), lf.guarded.clone());
                t.by_name
                    .entry(lf.field.clone())
                    .or_default()
                    .push((lf.strukt.clone(), lf.kind));
            }
            for mf in &m.map_fields {
                t.map_structs.insert((mf.strukt.clone(), mf.field.clone()));
                t.map_names.insert(mf.field.clone());
            }
        }
        t
    }

    /// Resolve `recv.lock()` / `recv.read()` / `recv.write()` to a lock
    /// identity `Struct.field`. Impl-context match wins; otherwise a
    /// unique field name resolves; ambiguous names merge into one
    /// conservative `*.field` node; unknown names are not acquisitions
    /// (this is what keeps `stdin().lock()` quiet).
    pub fn resolve_lock(
        &self,
        impl_ty: Option<&str>,
        field: &str,
        kind: LockKind,
    ) -> Option<String> {
        if let Some(ty) = impl_ty {
            if self.by_struct.get(&(ty.to_string(), field.to_string())) == Some(&kind) {
                return Some(format!("{ty}.{field}"));
            }
        }
        let cands: Vec<&(String, LockKind)> = self
            .by_name
            .get(field)
            .map(|v| v.iter().filter(|(_, k)| *k == kind).collect())
            .unwrap_or_default();
        match cands.len() {
            0 => None,
            1 => Some(format!("{}.{}", cands[0].0, field)),
            _ => Some(format!("*.{field}")),
        }
    }

    /// The guarded types of a resolved lock identity (`Struct.field`, or
    /// `*.field` merging every struct with such a field).
    pub fn guarded_types(&self, lock: &str) -> Vec<String> {
        let Some((strukt, field)) = lock.split_once('.') else {
            return Vec::new();
        };
        let mut types: Vec<String> = self
            .guarded
            .iter()
            .filter(|((s, f), _)| f == field && (strukt == "*" || s == strukt))
            .flat_map(|(_, types)| types.iter().cloned())
            .collect();
        types.sort();
        types.dedup();
        types
    }

    pub fn is_map_field(&self, name: &str) -> bool {
        self.map_names.contains(name)
    }
}

// ---------------------------------------------------------------------------
// token helpers

fn is_ident(t: &Tok, s: &str) -> bool {
    matches!(t, Tok::Ident(i) if i == s)
}

fn is_punct(t: &Tok, c: char) -> bool {
    matches!(t, Tok::Punct(p) if *p == c)
}

fn ident_of(t: &Tok) -> Option<&str> {
    match t {
        Tok::Ident(s) => Some(s),
        _ => None,
    }
}

/// Index of the '}' matching the '{' at `open`, by linear nesting count.
pub fn match_brace(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        match t.tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// Skip a balanced `<...>` starting at `i` (which holds '<'). A '>'
/// immediately preceded by '-' is an arrow, not a closer.
fn skip_angles(toks: &[Token], i: usize) -> usize {
    let mut depth = 0i32;
    let mut k = i;
    while k < toks.len() {
        match toks[k].tok {
            Tok::Punct('<') => depth += 1,
            Tok::Punct('>') => {
                let arrow = k > 0 && is_punct(&toks[k - 1].tok, '-');
                if !arrow {
                    depth -= 1;
                    if depth == 0 {
                        return k + 1;
                    }
                }
            }
            Tok::Punct(';') | Tok::Punct('{') => return k, // malformed; bail
            _ => {}
        }
        k += 1;
    }
    k
}

/// Index after the ')' matching the '(' at `open`.
fn skip_parens(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut k = open;
    while k < toks.len() {
        match toks[k].tok {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return k + 1;
                }
            }
            _ => {}
        }
        k += 1;
    }
    k
}

// ---------------------------------------------------------------------------
// phase A: declarations

/// Parse a suppression comment. Returns `None` when the comment does not
/// carry the marker, `Some(Err(..))` when it carries the marker but fails
/// the grammar (missing/empty reason, bad lint name).
fn parse_suppression(c: &Comment) -> Option<Result<Suppression, BadSuppression>> {
    let t = c.text.trim();
    let marker = "lsc-analyze:";
    let rest = t.strip_prefix(marker)?.trim_start();
    let bad = || Some(Err(BadSuppression { line: c.line }));
    let Some(rest) = rest.strip_prefix("allow(") else {
        return bad();
    };
    let Some(close) = rest.find(')') else {
        return bad();
    };
    let lint = rest[..close].trim();
    if lint.is_empty() || !lint.chars().all(|ch| ch.is_ascii_lowercase() || ch == '-') {
        return bad();
    }
    let tail = rest[close + 1..].trim_start();
    let Some(tail) = tail.strip_prefix("reason=\"") else {
        return bad();
    };
    let Some(end) = tail.find('"') else {
        return bad();
    };
    let reason = tail[..end].trim();
    if reason.is_empty() {
        return bad();
    }
    Some(Ok(Suppression {
        line: c.line,
        lint: lint.to_string(),
        reason: reason.to_string(),
    }))
}

fn type_tokens_contain(toks: &[&Tok], names: &[&str]) -> Option<String> {
    for t in toks {
        if let Tok::Ident(s) = t {
            if names.contains(&s.as_str()) {
                return Some(s.clone());
            }
        }
    }
    None
}

/// Collect struct fields (named and tuple) that are Mutex/RwLock or
/// HashMap/HashSet typed.
fn scan_structs(toks: &[Token], locks: &mut Vec<LockField>, maps: &mut Vec<MapField>) {
    let mut i = 0usize;
    while i + 1 < toks.len() {
        if !is_ident(&toks[i].tok, "struct") {
            i += 1;
            continue;
        }
        let Some(name) = ident_of(&toks[i + 1].tok).map(String::from) else {
            i += 1;
            continue;
        };
        let mut j = i + 2;
        if j < toks.len() && is_punct(&toks[j].tok, '<') {
            j = skip_angles(toks, j);
        }
        if j >= toks.len() {
            break;
        }
        if is_punct(&toks[j].tok, '{') {
            if let Some(close) = match_brace(toks, j) {
                scan_named_fields(&toks[j + 1..close], &name, locks, maps);
                i = close + 1;
                continue;
            }
        } else if is_punct(&toks[j].tok, '(') {
            let end = skip_parens(toks, j);
            scan_tuple_fields(&toks[j + 1..end.saturating_sub(1)], &name, locks, maps);
            i = end;
            continue;
        }
        i = j + 1;
    }
}

fn classify_field(
    strukt: &str,
    field: &str,
    ty: &[&Tok],
    locks: &mut Vec<LockField>,
    maps: &mut Vec<MapField>,
) {
    let kind = if type_tokens_contain(ty, &["Mutex"]).is_some() {
        Some(LockKind::Mutex)
    } else if type_tokens_contain(ty, &["RwLock"]).is_some() {
        Some(LockKind::RwLock)
    } else {
        None
    };
    if let Some(kind) = kind {
        let at = ty
            .iter()
            .position(|t| matches!(t, Tok::Ident(s) if s == "Mutex" || s == "RwLock"))
            .unwrap_or(0);
        let guarded = ty[at + 1..]
            .iter()
            .filter_map(|t| ident_of(t).map(String::from))
            .collect();
        locks.push(LockField {
            strukt: strukt.to_string(),
            field: field.to_string(),
            kind,
            guarded,
        });
    }
    if type_tokens_contain(ty, &["HashMap", "HashSet"]).is_some() {
        maps.push(MapField {
            strukt: strukt.to_string(),
            field: field.to_string(),
        });
    }
}

fn scan_named_fields(
    body: &[Token],
    strukt: &str,
    locks: &mut Vec<LockField>,
    maps: &mut Vec<MapField>,
) {
    let mut k = 0usize;
    while k < body.len() {
        // Skip attributes and visibility.
        if is_punct(&body[k].tok, '#') {
            // #[...] — skip to matching ']'.
            let mut depth = 0i32;
            k += 1;
            while k < body.len() {
                match body[k].tok {
                    Tok::Punct('[') => depth += 1,
                    Tok::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            k += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            continue;
        }
        if is_ident(&body[k].tok, "pub") {
            k += 1;
            if k < body.len() && is_punct(&body[k].tok, '(') {
                k = skip_parens(body, k);
            }
            continue;
        }
        let Some(fname) = ident_of(&body[k].tok).map(String::from) else {
            k += 1;
            continue;
        };
        if k + 1 >= body.len() || !is_punct(&body[k + 1].tok, ':') {
            k += 1;
            continue;
        }
        // Collect type tokens to the next top-level ','.
        let mut ty: Vec<&Tok> = Vec::new();
        let mut j = k + 2;
        let (mut ang, mut par, mut brk, mut brc) = (0i32, 0i32, 0i32, 0i32);
        while j < body.len() {
            let t = &body[j].tok;
            match t {
                Tok::Punct('<') => ang += 1,
                Tok::Punct('>') if !(j > 0 && is_punct(&body[j - 1].tok, '-')) => ang -= 1,
                Tok::Punct('(') => par += 1,
                Tok::Punct(')') => par -= 1,
                Tok::Punct('[') => brk += 1,
                Tok::Punct(']') => brk -= 1,
                Tok::Punct('{') => brc += 1,
                Tok::Punct('}') => brc -= 1,
                Tok::Punct(',') if ang == 0 && par == 0 && brk == 0 && brc == 0 => break,
                _ => {}
            }
            ty.push(t);
            j += 1;
        }
        classify_field(strukt, &fname, &ty, locks, maps);
        k = j + 1;
    }
}

fn scan_tuple_fields(
    body: &[Token],
    strukt: &str,
    locks: &mut Vec<LockField>,
    maps: &mut Vec<MapField>,
) {
    let mut idx = 0usize;
    let mut start = 0usize;
    let (mut ang, mut par, mut brk) = (0i32, 0i32, 0i32);
    let mut flush = |start: usize, end: usize, idx: usize| {
        let ty: Vec<&Tok> = body[start..end].iter().map(|t| &t.tok).collect();
        classify_field(strukt, &idx.to_string(), &ty, locks, maps);
    };
    let mut j = 0usize;
    while j < body.len() {
        match body[j].tok {
            Tok::Punct('<') => ang += 1,
            Tok::Punct('>') if !(j > 0 && is_punct(&body[j - 1].tok, '-')) => ang -= 1,
            Tok::Punct('(') => par += 1,
            Tok::Punct(')') => par -= 1,
            Tok::Punct('[') => brk += 1,
            Tok::Punct(']') => brk -= 1,
            Tok::Punct(',') if ang == 0 && par == 0 && brk == 0 => {
                flush(start, j, idx);
                idx += 1;
                start = j + 1;
            }
            _ => {}
        }
        j += 1;
    }
    if start < body.len() {
        flush(start, body.len(), idx);
    }
}

fn has_forbid_unsafe(toks: &[Token]) -> bool {
    toks.windows(7).any(|w| {
        is_punct(&w[0].tok, '#')
            && is_punct(&w[1].tok, '!')
            && is_punct(&w[2].tok, '[')
            && is_ident(&w[3].tok, "forbid")
            && is_punct(&w[4].tok, '(')
            && is_ident(&w[5].tok, "unsafe_code")
            && is_punct(&w[6].tok, ')')
    })
}

fn scan_allow_attrs(toks: &[Token]) -> Vec<AllowAttr> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !is_punct(&toks[i].tok, '#') {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        if j < toks.len() && is_punct(&toks[j].tok, '!') {
            j += 1;
        }
        if j + 2 < toks.len()
            && is_punct(&toks[j].tok, '[')
            && is_ident(&toks[j + 1].tok, "allow")
            && is_punct(&toks[j + 2].tok, '(')
        {
            let end = skip_parens(toks, j + 2);
            let what: Vec<String> = toks[j + 3..end.saturating_sub(1)]
                .iter()
                .filter_map(|t| ident_of(&t.tok).map(String::from))
                .collect();
            out.push(AllowAttr {
                line: toks[i].line,
                what: what.join("::"),
            });
            i = end;
            continue;
        }
        i += 1;
    }
    out
}

/// Phase A: lex a file and collect its declarations. Function bodies are
/// filled in by `scan_bodies` once the global `FieldTable` exists.
pub fn scan_decls(rel: &str, src: &str) -> FileModel {
    let lexed = lex(src);
    let mut lock_fields = Vec::new();
    let mut map_fields = Vec::new();
    scan_structs(&lexed.tokens, &mut lock_fields, &mut map_fields);
    let mut suppressions = Vec::new();
    let mut bad_suppressions = Vec::new();
    for c in &lexed.comments {
        match parse_suppression(c) {
            Some(Ok(s)) => suppressions.push(s),
            Some(Err(b)) => bad_suppressions.push(b),
            None => {}
        }
    }
    let is_test_code = rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/");
    FileModel {
        rel: rel.to_string(),
        has_forbid_unsafe: has_forbid_unsafe(&lexed.tokens),
        allow_attrs: scan_allow_attrs(&lexed.tokens),
        lock_fields,
        map_fields,
        suppressions,
        bad_suppressions,
        functions: Vec::new(),
        tokens: lexed.tokens,
        comments: lexed.comments,
        is_test_code,
    }
}

// ---------------------------------------------------------------------------
// phase B: function bodies

const FS_OPS: &[&str] = &[
    "read",
    "read_to_string",
    "write",
    "create_dir",
    "create_dir_all",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "rename",
    "copy",
    "read_dir",
    "metadata",
    "canonicalize",
    "hard_link",
    "set_permissions",
];

const IO_METHODS: &[&str] = &["accept", "incoming", "sync_all", "sync_data"];

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

const RANDOM_IDENTS: &[&str] = &["thread_rng", "OsRng", "from_entropy", "RandomState"];

const FAULT_IDENTS: &[&str] = &["FaultPlan", "FaultSite", "FaultyStream", "FaultConfig"];

const CALL_KEYWORDS: &[&str] = &[
    "if", "else", "while", "match", "for", "loop", "return", "let", "fn", "move", "in", "as",
    "where", "impl", "dyn", "box", "ref", "mut", "pub", "use", "mod", "struct", "enum", "trait",
    "type", "const", "static", "unsafe", "async", "await", "break", "continue",
];

/// Look backward from an item keyword for `#[test]` / `#[cfg(test)]`-style
/// attributes, skipping visibility and qualifier keywords.
fn has_test_attr(toks: &[Token], item: usize) -> bool {
    let mut j = item as i64 - 1;
    while j >= 0 {
        let t = &toks[j as usize].tok;
        if let Tok::Ident(s) = t {
            if ["pub", "async", "unsafe", "const", "extern", "crate", "in"].contains(&s.as_str()) {
                j -= 1;
                continue;
            }
            return false;
        }
        if is_punct(t, ')') {
            // pub(crate) — skip backwards over the parens.
            let mut depth = 0i32;
            while j >= 0 {
                match toks[j as usize].tok {
                    Tok::Punct(')') => depth += 1,
                    Tok::Punct('(') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j -= 1;
            }
            j -= 1;
            continue;
        }
        if is_punct(t, ']') {
            // An attribute group — scan backwards to its '#', checking idents.
            let mut depth = 0i32;
            let mut saw_test = false;
            while j >= 0 {
                match &toks[j as usize].tok {
                    Tok::Punct(']') => depth += 1,
                    Tok::Punct('[') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    Tok::Ident(s) if s == "test" => saw_test = true,
                    _ => {}
                }
                j -= 1;
            }
            if saw_test {
                return true;
            }
            j -= 2; // past '[' and '#'
            continue;
        }
        return false;
    }
    false
}

/// Parse the header after `impl` — returns (type name, body-open index).
fn parse_impl_header(toks: &[Token], mut j: usize, end: usize) -> (Option<String>, Option<usize>) {
    if j < end && is_punct(&toks[j].tok, '<') {
        j = skip_angles(toks, j);
    }
    let start = j;
    let mut open = None;
    let (mut ang, mut par) = (0i32, 0i32);
    while j < end {
        match toks[j].tok {
            Tok::Punct('<') => ang += 1,
            Tok::Punct('>') if !(j > 0 && is_punct(&toks[j - 1].tok, '-')) => ang -= 1,
            Tok::Punct('(') => par += 1,
            Tok::Punct(')') => par -= 1,
            Tok::Punct('{') if ang == 0 && par == 0 => {
                open = Some(j);
                break;
            }
            Tok::Punct(';') if ang == 0 && par == 0 => return (None, None),
            _ => {}
        }
        j += 1;
    }
    let open = match open {
        Some(o) => o,
        None => return (None, None),
    };
    // Pick the type: tokens after a top-level `for` when present, else
    // the whole header; the name is the last path ident before generics
    // or a `where` clause.
    let header = &toks[start..open];
    let mut ty_start = 0usize;
    let mut ang2 = 0i32;
    for (k, t) in header.iter().enumerate() {
        match &t.tok {
            Tok::Punct('<') => ang2 += 1,
            Tok::Punct('>') if !(k > 0 && is_punct(&header[k - 1].tok, '-')) => ang2 -= 1,
            Tok::Ident(s) if s == "for" && ang2 == 0 => ty_start = k + 1,
            _ => {}
        }
    }
    let mut name = None;
    let mut ang3 = 0i32;
    for (k, t) in header.iter().enumerate().skip(ty_start) {
        match &t.tok {
            Tok::Punct('<') => {
                if ang3 == 0 && name.is_some() {
                    break;
                }
                ang3 += 1;
            }
            Tok::Punct('>') if !(k > 0 && is_punct(&header[k - 1].tok, '-')) => ang3 -= 1,
            Tok::Ident(s) if s == "where" && ang3 == 0 => break,
            Tok::Ident(s) if ang3 == 0 && !["dyn", "mut", "for"].contains(&s.as_str()) => {
                name = Some(s.clone());
            }
            _ => {}
        }
    }
    (name, Some(open))
}

struct BodyScanner<'a> {
    toks: &'a [Token],
    table: &'a FieldTable,
    impl_ty: Option<&'a str>,
}

struct GuardState {
    lock: String,
    /// The lock's guarded types.
    types: Vec<String>,
    name: Option<String>,
    bound: i32,
    temp: bool,
}

impl<'a> BodyScanner<'a> {
    fn held(&self, guards: &[GuardState]) -> Vec<String> {
        let mut h: Vec<String> = Vec::new();
        for g in guards {
            if !h.contains(&g.lock) {
                h.push(g.lock.clone());
            }
        }
        h
    }

    /// Scan tokens in `[s, e)` (inside the body braces), emitting events.
    fn run(&self, s: usize, e: usize) -> (Vec<Event>, bool) {
        let toks = self.toks;
        let mut events = Vec::new();
        let mut mentions_faults = false;
        let mut guards: Vec<GuardState> = Vec::new();
        let mut depth = 0i32;
        let mut stmt_let: Option<Option<String>> = None; // Some(binding name?)
        let mut map_locals: HashSet<String> = HashSet::new();
        let mut j = s;
        while j < e {
            let line = toks[j].line;
            match &toks[j].tok {
                Tok::Punct('{') => {
                    guards.retain(|g| !g.temp);
                    depth += 1;
                    stmt_let = None;
                    j += 1;
                }
                Tok::Punct('}') => {
                    guards.retain(|g| !g.temp);
                    depth -= 1;
                    guards.retain(|g| g.bound <= depth);
                    stmt_let = None;
                    j += 1;
                }
                Tok::Punct(';') => {
                    guards.retain(|g| !g.temp);
                    stmt_let = None;
                    j += 1;
                }
                Tok::Ident(id) => {
                    if FAULT_IDENTS.contains(&id.as_str()) {
                        mentions_faults = true;
                    }
                    if id == "let" {
                        let mut k = j + 1;
                        while k < e && is_ident(&toks[k].tok, "mut") {
                            k += 1;
                        }
                        let bind = toks.get(k).and_then(|t| ident_of(&t.tok)).map(String::from);
                        stmt_let = Some(bind);
                        j += 1;
                        continue;
                    }
                    if (id == "HashMap" || id == "HashSet") && stmt_let.is_some() {
                        if let Some(Some(name)) = &stmt_let {
                            map_locals.insert(name.clone());
                        }
                    }
                    if id == "drop"
                        && j + 3 < e
                        && is_punct(&toks[j + 1].tok, '(')
                        && is_punct(&toks[j + 3].tok, ')')
                    {
                        if let Some(victim) = ident_of(&toks[j + 2].tok) {
                            guards.retain(|g| g.name.as_deref() != Some(victim));
                            events.push(Event::Call {
                                name: "drop".into(),
                                kind: CallKind::Bare,
                                line,
                                held: self.held(&guards),
                            });
                            j += 4;
                            continue;
                        }
                    }
                    self.note_guard_use(&mut events, &guards, s, j, e, line);
                    if let Some(consumed) = self.try_io(&mut events, &guards, j, e, line) {
                        j = consumed;
                        continue;
                    }
                    if let Some(consumed) =
                        self.try_acquire(&mut events, &mut guards, &stmt_let, depth, j, e, line)
                    {
                        j = consumed;
                        continue;
                    }
                    if let Some(consumed) = self.try_map_iter(&mut events, &map_locals, j, e, line)
                    {
                        j = consumed;
                        continue;
                    }
                    if let Some(consumed) = self.try_time_random(&mut events, j, e, line) {
                        j = consumed;
                        continue;
                    }
                    if let Some((call, consumed)) = self.try_call(&guards, j, e, line) {
                        if let Event::Call { name, .. } = &call {
                            if ["decide", "decision_at", "open_with_faults"]
                                .contains(&name.as_str())
                            {
                                mentions_faults = true;
                            }
                        }
                        events.push(call);
                        j = consumed;
                        continue;
                    }
                    j += 1;
                }
                _ => {
                    j += 1;
                }
            }
        }
        (events, mentions_faults)
    }

    /// A named live guard used as a method receiver (`g.m(`) or passed as
    /// a call argument (`f(&mut g, ..)`, `op(g)`): records a
    /// [`Event::GuardUse`], so I/O behind the guarded type is seen even
    /// where the callee is a closure or a method on another receiver.
    fn note_guard_use(
        &self,
        events: &mut Vec<Event>,
        guards: &[GuardState],
        s: usize,
        j: usize,
        e: usize,
        line: u32,
    ) {
        let toks = self.toks;
        let Some(id) = ident_of(&toks[j].tok) else {
            return;
        };
        if j > s && is_punct(&toks[j - 1].tok, '.') {
            return; // a field or method named like the guard
        }
        let Some(guard) = guards.iter().rev().find(|g| g.name.as_deref() == Some(id)) else {
            return;
        };
        let method =
            if j + 3 < e && is_punct(&toks[j + 1].tok, '.') && is_punct(&toks[j + 3].tok, '(') {
                ident_of(&toks[j + 2].tok).map(String::from)
            } else {
                None
            };
        if method.is_none() {
            // Argument position: `(` or `,` before (past `&`, `mut`,
            // `*`), `,` or `)` after.
            let mut k = j;
            while k > s
                && (is_punct(&toks[k - 1].tok, '&')
                    || is_punct(&toks[k - 1].tok, '*')
                    || is_ident(&toks[k - 1].tok, "mut"))
            {
                k -= 1;
            }
            let opened =
                k > s && (is_punct(&toks[k - 1].tok, '(') || is_punct(&toks[k - 1].tok, ','));
            let closed =
                j + 1 < e && (is_punct(&toks[j + 1].tok, ',') || is_punct(&toks[j + 1].tok, ')'));
            if !(opened && closed) {
                return;
            }
        }
        events.push(Event::GuardUse {
            types: guard.types.clone(),
            method,
            line,
            held: self.held(guards),
        });
    }

    /// Filesystem/socket operation sequences.
    fn try_io(
        &self,
        events: &mut Vec<Event>,
        guards: &[GuardState],
        j: usize,
        e: usize,
        line: u32,
    ) -> Option<usize> {
        let toks = self.toks;
        let path_call = |head: &str, ops: &[&str]| -> Option<(String, usize)> {
            if !is_ident(&toks[j].tok, head) || j + 4 >= e {
                return None;
            }
            if !(is_punct(&toks[j + 1].tok, ':') && is_punct(&toks[j + 2].tok, ':')) {
                return None;
            }
            let op = ident_of(&toks[j + 3].tok)?;
            if ops.contains(&op) && is_punct(&toks[j + 4].tok, '(') {
                Some((format!("{head}::{op}"), j + 4))
            } else {
                None
            }
        };
        let hit = path_call("fs", FS_OPS)
            .or_else(|| path_call("File", &["open", "create", "create_new", "options"]))
            .or_else(|| path_call("OpenOptions", &["new"]))
            .or_else(|| path_call("TcpStream", &["connect", "connect_timeout"]))
            .or_else(|| path_call("TcpListener", &["bind"]))
            .or_else(|| path_call("UdpSocket", &["bind"]));
        if let Some((what, _)) = hit {
            events.push(Event::Io {
                what,
                line,
                held: self.held(guards),
            });
            return Some(j + 4);
        }
        // `.accept(` / `.incoming(` / `.sync_all(` / `.sync_data(`
        if j > 0 && is_punct(&toks[j - 1].tok, '.') && j + 1 < e {
            if let Some(m) = ident_of(&toks[j].tok) {
                if IO_METHODS.contains(&m) && is_punct(&toks[j + 1].tok, '(') {
                    events.push(Event::Io {
                        what: format!(".{m}"),
                        line,
                        held: self.held(guards),
                    });
                    return Some(j + 1);
                }
            }
        }
        None
    }

    /// `recv.lock()` / `recv.read()` / `recv.write()` with empty parens,
    /// where `recv` resolves to a declared lock field.
    #[allow(clippy::too_many_arguments)] // internal scanner plumbing; splitting loses the shared cursor
    fn try_acquire(
        &self,
        events: &mut Vec<Event>,
        guards: &mut Vec<GuardState>,
        stmt_let: &Option<Option<String>>,
        depth: i32,
        j: usize,
        e: usize,
        line: u32,
    ) -> Option<usize> {
        let toks = self.toks;
        if j < 2 || j + 2 >= e {
            return None;
        }
        let m = ident_of(&toks[j].tok)?;
        let kind = match m {
            "lock" => LockKind::Mutex,
            "read" | "write" => LockKind::RwLock,
            _ => return None,
        };
        if !is_punct(&toks[j - 1].tok, '.')
            || !is_punct(&toks[j + 1].tok, '(')
            || !is_punct(&toks[j + 2].tok, ')')
        {
            return None;
        }
        let recv = match &toks[j - 2].tok {
            Tok::Ident(s) => s.clone(),
            Tok::Num(n) => n.clone(),
            _ => return None,
        };
        let lock = self.table.resolve_lock(self.impl_ty, &recv, kind)?;
        events.push(Event::Acquire {
            lock: lock.clone(),
            line,
            held: self.held(guards),
        });
        // Guard scope: skip .unwrap()/.expect(..); a continued method
        // chain means the guard is a temporary, otherwise a `let`
        // statement pins it to the enclosing block.
        let mut k = j + 3;
        while k + 1 < e
            && is_punct(&toks[k].tok, '.')
            && matches!(ident_of(&toks[k + 1].tok), Some("unwrap") | Some("expect"))
        {
            let open = k + 2;
            if open < e && is_punct(&toks[open].tok, '(') {
                k = skip_parens(toks, open);
            } else {
                k += 2;
            }
        }
        let chained = k < e && is_punct(&toks[k].tok, '.');
        let is_let = stmt_let.is_some();
        let temp = chained || !is_let;
        let name = match stmt_let {
            Some(Some(n)) if !temp => Some(n.clone()),
            _ => None,
        };
        guards.push(GuardState {
            types: self.table.guarded_types(&lock),
            lock,
            name,
            bound: depth,
            temp,
        });
        Some(j + 3)
    }

    fn try_map_iter(
        &self,
        events: &mut Vec<Event>,
        map_locals: &HashSet<String>,
        j: usize,
        e: usize,
        line: u32,
    ) -> Option<usize> {
        let toks = self.toks;
        // Method form: recv.iter( / .keys( / ... — a receiver itself
        // preceded by '.' is a field access resolved against declared
        // HashMap/HashSet fields; a bare receiver resolves against map
        // locals only (a local `counts` must not collide with some other
        // struct's `counts` field).
        if j >= 2 && j + 1 < e && is_punct(&toks[j - 1].tok, '.') {
            if let Some(m) = ident_of(&toks[j].tok) {
                if ITER_METHODS.contains(&m) && is_punct(&toks[j + 1].tok, '(') {
                    if let Some(recv) = ident_of(&toks[j - 2].tok) {
                        let field_access = j >= 3 && is_punct(&toks[j - 3].tok, '.');
                        let resolved = if field_access {
                            self.table.is_map_field(recv)
                        } else {
                            map_locals.contains(recv)
                        };
                        if resolved {
                            events.push(Event::MapIter {
                                recv: recv.to_string(),
                                method: m.to_string(),
                                line,
                            });
                            return Some(j + 1);
                        }
                    }
                }
            }
        }
        // For-loop form: `for pat in [&][mut] path.to.map {` — only when
        // the in-clause is a plain path (no calls), taking the last ident.
        if is_ident(&toks[j].tok, "for") {
            let mut k = j + 1;
            let mut saw_in = false;
            while k < e && k < j + 40 {
                if is_ident(&toks[k].tok, "in") {
                    saw_in = true;
                    k += 1;
                    break;
                }
                if is_punct(&toks[k].tok, '{') {
                    break;
                }
                k += 1;
            }
            if saw_in {
                let mut last_ident: Option<&str> = None;
                let mut plain = true;
                let mut dotted = false;
                while k < e && k < j + 60 {
                    match &toks[k].tok {
                        Tok::Punct('{') => break,
                        Tok::Punct('.') => dotted = true,
                        Tok::Punct('&') => {}
                        Tok::Ident(s) if s == "mut" => {}
                        Tok::Ident(s) => last_ident = Some(s),
                        _ => {
                            plain = false;
                            break;
                        }
                    }
                    k += 1;
                }
                if plain {
                    if let Some(recv) = last_ident {
                        let resolved = if dotted {
                            self.table.is_map_field(recv)
                        } else {
                            map_locals.contains(recv)
                        };
                        if resolved && recv != "self" {
                            events.push(Event::MapIter {
                                recv: recv.to_string(),
                                method: "for-in".to_string(),
                                line,
                            });
                        }
                    }
                }
            }
        }
        None
    }

    fn try_time_random(
        &self,
        events: &mut Vec<Event>,
        j: usize,
        e: usize,
        line: u32,
    ) -> Option<usize> {
        let toks = self.toks;
        let id = ident_of(&toks[j].tok)?;
        if (id == "Instant" || id == "SystemTime")
            && j + 3 < e
            && is_punct(&toks[j + 1].tok, ':')
            && is_punct(&toks[j + 2].tok, ':')
            && is_ident(&toks[j + 3].tok, "now")
        {
            events.push(Event::TimeNow {
                what: format!("{id}::now"),
                line,
            });
            return Some(j + 4);
        }
        if RANDOM_IDENTS.contains(&id) {
            events.push(Event::Random {
                what: id.to_string(),
                line,
            });
            return Some(j + 1);
        }
        if id == "rand"
            && j + 3 < e
            && is_punct(&toks[j + 1].tok, ':')
            && is_punct(&toks[j + 2].tok, ':')
            && is_ident(&toks[j + 3].tok, "random")
        {
            events.push(Event::Random {
                what: "rand::random".to_string(),
                line,
            });
            return Some(j + 4);
        }
        None
    }

    fn try_call(
        &self,
        guards: &[GuardState],
        j: usize,
        e: usize,
        line: u32,
    ) -> Option<(Event, usize)> {
        let toks = self.toks;
        let name = ident_of(&toks[j].tok)?;
        if CALL_KEYWORDS.contains(&name) {
            return None;
        }
        if j + 1 >= e || !is_punct(&toks[j + 1].tok, '(') {
            return None;
        }
        if j > 0 && is_ident(&toks[j - 1].tok, "fn") {
            return None;
        }
        let kind = if j > 0 && is_punct(&toks[j - 1].tok, '.') {
            if j >= 2 && is_ident(&toks[j - 2].tok, "self") {
                CallKind::SelfMethod
            } else {
                CallKind::OtherMethod
            }
        } else if j >= 3 && is_punct(&toks[j - 1].tok, ':') && is_punct(&toks[j - 2].tok, ':') {
            match ident_of(&toks[j - 3].tok) {
                Some(t) => CallKind::Qualified(t.to_string()),
                None => CallKind::OtherMethod, // e.g. `<T as Trait>::f(`
            }
        } else {
            CallKind::Bare
        };
        Some((
            Event::Call {
                name: name.to_string(),
                kind,
                line,
                held: self.held(guards),
            },
            j + 1,
        ))
    }
}

/// Phase B: walk items and extract function bodies.
pub fn scan_bodies(model: &mut FileModel, table: &FieldTable) {
    let toks = std::mem::take(&mut model.tokens);
    let mut functions = Vec::new();
    walk_items(&toks, table, 0, toks.len(), None, false, &mut functions);
    model.functions = functions;
    model.tokens = toks;
}

fn walk_items(
    toks: &[Token],
    table: &FieldTable,
    s: usize,
    e: usize,
    impl_ty: Option<&str>,
    in_test: bool,
    out: &mut Vec<Function>,
) {
    let mut i = s;
    while i < e {
        match &toks[i].tok {
            Tok::Ident(k) if k == "impl" => {
                let (ty, open) = parse_impl_header(toks, i + 1, e);
                if let Some(open) = open {
                    if let Some(close) = match_brace(toks, open) {
                        walk_items(
                            toks,
                            table,
                            open + 1,
                            close,
                            ty.as_deref(),
                            in_test || has_test_attr(toks, i),
                            out,
                        );
                        i = close + 1;
                        continue;
                    }
                }
                i += 1;
            }
            Tok::Ident(k) if k == "mod" => {
                if i + 2 < e
                    && ident_of(&toks[i + 1].tok).is_some()
                    && is_punct(&toks[i + 2].tok, '{')
                {
                    if let Some(close) = match_brace(toks, i + 2) {
                        let test = in_test || has_test_attr(toks, i);
                        walk_items(toks, table, i + 3, close, None, test, out);
                        i = close + 1;
                        continue;
                    }
                }
                i += 1;
            }
            Tok::Ident(k) if k == "fn" => {
                let Some(name) = toks.get(i + 1).and_then(|t| ident_of(&t.tok)) else {
                    i += 1;
                    continue;
                };
                let mut j = i + 2;
                if j < e && is_punct(&toks[j].tok, '<') {
                    j = skip_angles(toks, j);
                }
                if j >= e || !is_punct(&toks[j].tok, '(') {
                    i += 1;
                    continue;
                }
                let sig_end = skip_parens(toks, j);
                // Find the body '{' or a ';' (trait declaration).
                let mut b = sig_end;
                let mut body = None;
                while b < e {
                    match toks[b].tok {
                        Tok::Punct('{') => {
                            body = Some(b);
                            break;
                        }
                        Tok::Punct(';') => break,
                        _ => b += 1,
                    }
                }
                let Some(open) = body else {
                    i = b + 1;
                    continue;
                };
                let Some(close) = match_brace(toks, open) else {
                    i = open + 1;
                    continue;
                };
                let scanner = BodyScanner {
                    toks,
                    table,
                    impl_ty,
                };
                let (events, body_faults) = scanner.run(open + 1, close);
                let sig_faults = toks[i..open]
                    .iter()
                    .any(|t| matches!(&t.tok, Tok::Ident(s) if FAULT_IDENTS.contains(&s.as_str())));
                out.push(Function {
                    name: name.to_string(),
                    impl_type: impl_ty.map(String::from),
                    line: toks[i].line,
                    in_test: in_test || has_test_attr(toks, i),
                    mentions_faults: body_faults || sig_faults,
                    body: (open + 1, close),
                    events,
                });
                i = close + 1;
            }
            _ => {
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        let mut m = scan_decls("crates/x/src/a.rs", src);
        let table = FieldTable::build(std::slice::from_ref(&m));
        scan_bodies(&mut m, &table);
        m
    }

    const LOCKY: &str = r#"
        use std::sync::Mutex;
        struct S { a: Mutex<u32>, b: Mutex<u32> }
        impl S {
            fn ab(&self) {
                let ga = self.a.lock().unwrap();
                let gb = self.b.lock().unwrap();
                drop(gb);
                drop(ga);
            }
            fn temp(&self) -> u32 {
                *self.a.lock().unwrap()
            }
        }
    "#;

    #[test]
    fn lock_fields_collected() {
        let m = model(LOCKY);
        assert_eq!(m.lock_fields.len(), 2);
        assert_eq!(m.lock_fields[0].strukt, "S");
    }

    #[test]
    fn held_sets_tracked() {
        let m = model(LOCKY);
        let ab = m.functions.iter().find(|f| f.name == "ab").unwrap();
        let acquires: Vec<_> = ab
            .events
            .iter()
            .filter_map(|ev| match ev {
                Event::Acquire { lock, held, .. } => Some((lock.clone(), held.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(acquires.len(), 2);
        assert_eq!(acquires[0], ("S.a".into(), vec![]));
        assert_eq!(acquires[1], ("S.b".into(), vec!["S.a".into()]));
    }

    #[test]
    fn chained_guard_is_temporary() {
        let src = r#"
            use std::sync::Mutex;
            struct S { a: Mutex<u32> }
            impl S {
                fn f(&self) {
                    let v = self.a.lock().unwrap().checked_add(1);
                    self.g();
                }
                fn g(&self) {}
            }
        "#;
        let m = model(src);
        let f = m.functions.iter().find(|f| f.name == "f").unwrap();
        let call_held: Vec<_> = f
            .events
            .iter()
            .filter_map(|ev| match ev {
                Event::Call { name, held, .. } if name == "g" => Some(held.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(call_held, vec![Vec::<String>::new()]);
    }

    #[test]
    fn guard_uses_carry_the_guarded_types() {
        let m = model(
            r#"
            use std::sync::{Arc, Mutex};
            struct S { c: Arc<Mutex<Conn>> }
            impl S {
                fn f(&self, op: impl Fn(&mut Conn)) {
                    let mut g = self.c.lock().unwrap();
                    g.call();
                    op(&mut g);
                    let n = g.n + 1;
                    drop(g);
                    op(&mut g);
                }
            }
        "#,
        );
        let uses: Vec<(Vec<String>, Option<String>, usize)> = m.functions[0]
            .events
            .iter()
            .filter_map(|e| match e {
                Event::GuardUse {
                    types,
                    method,
                    held,
                    ..
                } => Some((types.clone(), method.clone(), held.len())),
                _ => None,
            })
            .collect();
        let conn = vec!["Conn".to_string()];
        assert_eq!(
            uses,
            [(conn.clone(), Some("call".to_string()), 1), (conn, None, 1)],
            "receiver and argument uses while held; field reads and uses after drop are not"
        );
    }

    #[test]
    fn drop_releases_guard() {
        let src = r#"
            use std::sync::Mutex;
            struct S { a: Mutex<u32> }
            impl S {
                fn f(&self) {
                    let g = self.a.lock().unwrap();
                    drop(g);
                    self.h();
                }
                fn h(&self) {}
            }
        "#;
        let m = model(src);
        let f = m.functions.iter().find(|f| f.name == "f").unwrap();
        for ev in &f.events {
            if let Event::Call { name, held, .. } = ev {
                if name == "h" {
                    assert!(held.is_empty());
                }
            }
        }
    }

    #[test]
    fn rwlock_tuple_field_resolves() {
        let src = r#"
            use std::sync::RwLock;
            struct Stripe(RwLock<u32>);
            struct Outer { stripes: Vec<Stripe> }
            impl Outer {
                fn f(&self) -> u32 {
                    *self.stripes[0].0.read().unwrap()
                }
            }
        "#;
        let m = model(src);
        let f = m.functions.iter().find(|f| f.name == "f").unwrap();
        assert!(f
            .events
            .iter()
            .any(|ev| matches!(ev, Event::Acquire { lock, .. } if lock == "Stripe.0")));
    }

    #[test]
    fn unknown_receiver_is_not_acquisition() {
        let src = r#"
            fn main() {
                let stdin = std::io::stdin();
                let handle = stdin.lock();
            }
        "#;
        let m = model(src);
        let f = &m.functions[0];
        assert!(!f
            .events
            .iter()
            .any(|ev| matches!(ev, Event::Acquire { .. })));
    }

    #[test]
    fn map_iteration_detected() {
        let src = r#"
            use std::collections::HashMap;
            struct C { entries: HashMap<u64, u64> }
            impl C {
                fn sum(&self) -> u64 { self.entries.values().sum() }
                fn walk(&self) { for (k, v) in &self.entries {} }
            }
        "#;
        let m = model(src);
        let iters: Vec<_> = m
            .functions
            .iter()
            .flat_map(|f| f.events.iter())
            .filter(|ev| matches!(ev, Event::MapIter { .. }))
            .collect();
        assert_eq!(iters.len(), 2);
    }

    #[test]
    fn cfg_test_functions_marked() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() {}
            }
            fn prod() {}
        "#;
        let m = model(src);
        let t = m.functions.iter().find(|f| f.name == "t").unwrap();
        let p = m.functions.iter().find(|f| f.name == "prod").unwrap();
        assert!(t.in_test);
        assert!(!p.in_test);
    }

    #[test]
    fn io_and_fault_mentions() {
        let src = r#"
            struct P;
            impl P {
                fn save(&self) {
                    std::fs::write("/tmp/x", b"d").unwrap();
                }
                fn routed(&self, plan: &FaultPlan) {
                    std::fs::write("/tmp/x", b"d").unwrap();
                }
            }
        "#;
        let m = model(src);
        let save = m.functions.iter().find(|f| f.name == "save").unwrap();
        assert!(save.events.iter().any(|ev| matches!(ev, Event::Io { .. })));
        assert!(!save.mentions_faults);
        let routed = m.functions.iter().find(|f| f.name == "routed").unwrap();
        assert!(routed.mentions_faults);
    }

    #[test]
    fn suppression_grammar() {
        let src = "// lsc-analyze: allow(lock-across-io) reason=\"client socket\"\nfn f() {}\n// lsc-analyze: allow(x)\n";
        let m = model(src);
        assert_eq!(m.suppressions.len(), 1);
        assert_eq!(m.suppressions[0].lint, "lock-across-io");
        assert_eq!(m.bad_suppressions.len(), 1);
    }

    #[test]
    fn call_kinds() {
        let src = r#"
            struct S;
            impl S {
                fn f(&self) {
                    self.g();
                    helper();
                    Other::assoc();
                    self.field.h();
                }
                fn g(&self) {}
            }
            fn helper() {}
        "#;
        let m = model(src);
        let f = m.functions.iter().find(|f| f.name == "f").unwrap();
        let kinds: Vec<_> = f
            .events
            .iter()
            .filter_map(|ev| match ev {
                Event::Call { name, kind, .. } => Some((name.clone(), kind.clone())),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&("g".into(), CallKind::SelfMethod)));
        assert!(kinds.contains(&("helper".into(), CallKind::Bare)));
        assert!(kinds.contains(&("assoc".into(), CallKind::Qualified("Other".into()))));
        assert!(kinds.contains(&("h".into(), CallKind::OtherMethod)));
    }
}
