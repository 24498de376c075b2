//! Code-level lints: lock-order / lock-across-io, determinism, fault-site
//! coverage, and hygiene (forbid(unsafe_code), allow-without-reason).
//!
//! All functions take the scanned `FileModel` set and append `Finding`s;
//! suppression filtering happens centrally in `lib.rs`.

use crate::report::Finding;
use crate::scan::{CallKind, Event, FileModel, Function};
use std::collections::{BTreeMap, BTreeSet, HashMap};

pub const LOCK_ORDER: &str = "lock-order";
pub const LOCK_ACROSS_IO: &str = "lock-across-io";
pub const NONDET_ITER: &str = "nondeterministic-iteration";
pub const TIME_DEP: &str = "time-dependence";
pub const UNSEEDED_RANDOM: &str = "unseeded-randomness";
pub const UNROUTED_IO: &str = "unrouted-io";
pub const MISSING_FORBID: &str = "missing-forbid-unsafe";
pub const ALLOW_NO_REASON: &str = "allow-without-reason";

// ---------------------------------------------------------------------------
// lock-order + lock-across-io

/// A function key in the (restricted) call graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
struct FnRef {
    file: usize,
    idx: usize,
}

struct LockGraph<'a> {
    models: &'a [FileModel],
    /// (impl type or "", fn name) -> refs. Free functions index under "".
    by_key: HashMap<(String, String), Vec<FnRef>>,
    /// Transitive lock sets and I/O flags, computed by fixpoint.
    locks_star: HashMap<FnRef, BTreeSet<String>>,
    io_star: HashMap<FnRef, bool>,
}

impl<'a> LockGraph<'a> {
    fn function(&self, r: FnRef) -> &'a Function {
        &self.models[r.file].functions[r.idx]
    }

    fn targets(&self, caller: &Function, name: &str, kind: &CallKind) -> Vec<FnRef> {
        let key = match kind {
            CallKind::Bare => (String::new(), name.to_string()),
            CallKind::SelfMethod => match &caller.impl_type {
                Some(t) => (t.clone(), name.to_string()),
                None => return Vec::new(),
            },
            CallKind::Qualified(t) => (t.clone(), name.to_string()),
            CallKind::OtherMethod => return Vec::new(),
        };
        self.by_key.get(&key).cloned().unwrap_or_default()
    }

    /// The first (by name) method of one of `types` — `method` itself
    /// when given — that may perform blocking I/O.
    fn io_method(&self, types: &[String], method: Option<&str>) -> Option<String> {
        let mut hits: Vec<String> = self
            .by_key
            .iter()
            .filter(|((ty, name), _)| {
                types.contains(ty) && method.is_none_or(|m| m == name.as_str())
            })
            .filter(|(_, refs)| {
                refs.iter()
                    .any(|r| self.io_star.get(r).copied().unwrap_or(false))
            })
            .map(|((ty, name), _)| format!("{ty}::{name}"))
            .collect();
        hits.sort();
        hits.into_iter().next()
    }

    fn build(models: &'a [FileModel]) -> LockGraph<'a> {
        let mut by_key: HashMap<(String, String), Vec<FnRef>> = HashMap::new();
        let mut refs = Vec::new();
        for (fi, m) in models.iter().enumerate() {
            if m.is_test_code {
                continue;
            }
            for (gi, f) in m.functions.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                let r = FnRef { file: fi, idx: gi };
                refs.push(r);
                by_key
                    .entry((f.impl_type.clone().unwrap_or_default(), f.name.clone()))
                    .or_default()
                    .push(r);
            }
        }
        let mut g = LockGraph {
            models,
            by_key,
            locks_star: HashMap::new(),
            io_star: HashMap::new(),
        };
        // Seed with direct facts.
        for &r in &refs {
            let f = g.function(r);
            let mut locks = BTreeSet::new();
            let mut io = false;
            for ev in &f.events {
                match ev {
                    Event::Acquire { lock, .. } => {
                        locks.insert(lock.clone());
                    }
                    Event::Io { .. } => io = true,
                    _ => {}
                }
            }
            g.locks_star.insert(r, locks);
            g.io_star.insert(r, io);
        }
        // Fixpoint over the restricted call graph.
        loop {
            let mut changed = false;
            for &r in &refs {
                let f = g.function(r);
                let mut add_locks: Vec<String> = Vec::new();
                let mut add_io = false;
                for ev in &f.events {
                    if let Event::Call { name, kind, .. } = ev {
                        for t in g.targets(f, name, kind) {
                            if t == r {
                                continue;
                            }
                            if let Some(ls) = g.locks_star.get(&t) {
                                add_locks.extend(ls.iter().cloned());
                            }
                            if g.io_star.get(&t).copied().unwrap_or(false) {
                                add_io = true;
                            }
                        }
                    }
                }
                let locks = g.locks_star.get_mut(&r).unwrap();
                for l in add_locks {
                    changed |= locks.insert(l);
                }
                let io = g.io_star.get_mut(&r).unwrap();
                if add_io && !*io {
                    *io = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        g
    }
}

/// Witnessed edge in the lock-acquisition order graph.
struct LockEdge {
    from: String,
    to: String,
    file: String,
    line: u32,
    via: String,
}

pub fn lock_lints(models: &[FileModel], out: &mut Vec<Finding>) {
    let g = LockGraph::build(models);
    let mut edges: Vec<LockEdge> = Vec::new();
    for (fi, m) in models.iter().enumerate() {
        if m.is_test_code {
            continue;
        }
        for f in &m.functions {
            if f.in_test {
                continue;
            }
            let fname = match &f.impl_type {
                Some(t) => format!("{t}::{}", f.name),
                None => f.name.clone(),
            };
            for ev in &f.events {
                match ev {
                    Event::Acquire { lock, line, held } => {
                        for h in held {
                            edges.push(LockEdge {
                                from: h.clone(),
                                to: lock.clone(),
                                file: m.rel.clone(),
                                line: *line,
                                via: format!("{fname} acquires {lock} while holding {h}"),
                            });
                        }
                    }
                    Event::Io { what, line, held } => {
                        for h in held {
                            out.push(Finding::new(
                                LOCK_ACROSS_IO,
                                &m.rel,
                                *line,
                                format!("{fname} performs blocking I/O ({what}) while holding {h}"),
                            ));
                        }
                    }
                    Event::Call {
                        name,
                        kind,
                        line,
                        held,
                    } if !held.is_empty() => {
                        for t in g.targets(f, name, kind) {
                            let callee = g.function(t);
                            let callee_name = match &callee.impl_type {
                                Some(ty) => format!("{ty}::{}", callee.name),
                                None => callee.name.clone(),
                            };
                            for h in held {
                                for l in g.locks_star.get(&t).into_iter().flatten() {
                                    edges.push(LockEdge {
                                        from: h.clone(),
                                        to: l.clone(),
                                        file: m.rel.clone(),
                                        line: *line,
                                        via: format!(
                                            "{fname} calls {callee_name} (which may acquire {l}) while holding {h}"
                                        ),
                                    });
                                }
                                if g.io_star.get(&t).copied().unwrap_or(false) {
                                    out.push(Finding::new(
                                        LOCK_ACROSS_IO,
                                        &m.rel,
                                        *line,
                                        format!(
                                            "{fname} calls {callee_name} (which may perform blocking I/O) while holding {h}"
                                        ),
                                    ));
                                }
                            }
                        }
                    }
                    Event::GuardUse {
                        types,
                        method,
                        line,
                        held,
                    } if !held.is_empty() => {
                        let Some(callee) = g.io_method(types, method.as_deref()) else {
                            continue;
                        };
                        let how = match method {
                            Some(_) => format!("calls {callee} on a guarded value"),
                            None => format!(
                                "passes a guarded value into a call ({callee} may perform blocking I/O)"
                            ),
                        };
                        for h in held {
                            out.push(Finding::new(
                                LOCK_ACROSS_IO,
                                &m.rel,
                                *line,
                                format!("{fname} {how} while holding {h}"),
                            ));
                        }
                    }
                    _ => {}
                }
            }
            let _ = fi;
        }
    }
    // Cycle detection: adjacency over lock nodes; an edge is reported when
    // its target can reach its source (i.e. it closes a cycle). Self-edges
    // (re-acquiring a held lock) are always reported.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        adj.entry(e.from.as_str())
            .or_default()
            .insert(e.to.as_str());
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            if !seen.insert(n) {
                continue;
            }
            if let Some(next) = adj.get(n) {
                stack.extend(next.iter().copied());
            }
        }
        false
    };
    let mut reported: BTreeSet<(String, String, String, u32)> = BTreeSet::new();
    for e in &edges {
        let cyclic = e.from == e.to || reaches(&e.to, &e.from);
        if !cyclic {
            continue;
        }
        if !reported.insert((e.from.clone(), e.to.clone(), e.file.clone(), e.line)) {
            continue;
        }
        let msg = if e.from == e.to {
            format!(
                "lock-order cycle: {} re-acquired while held — {}",
                e.from, e.via
            )
        } else {
            format!(
                "lock-order cycle: {} -> {} closes a cycle ({} is reachable from {}) — {}",
                e.from, e.to, e.from, e.to, e.via
            )
        };
        out.push(Finding::new(LOCK_ORDER, &e.file, e.line, msg));
    }
}

// ---------------------------------------------------------------------------
// determinism

pub fn determinism_lint(models: &[FileModel], prefixes: &[String], out: &mut Vec<Finding>) {
    for m in models {
        if m.is_test_code || !prefixes.iter().any(|p| m.rel.starts_with(p.as_str())) {
            continue;
        }
        for f in &m.functions {
            if f.in_test {
                continue;
            }
            for ev in &f.events {
                match ev {
                    Event::MapIter { recv, method, line } => out.push(Finding::new(
                        NONDET_ITER,
                        &m.rel,
                        *line,
                        format!(
                            "iteration over hash-ordered collection `{recv}` ({method}) in a replay-deterministic module; use BTreeMap/BTreeSet or sort first"
                        ),
                    )),
                    Event::TimeNow { what, line } => out.push(Finding::new(
                        TIME_DEP,
                        &m.rel,
                        *line,
                        format!(
                            "{what} in a replay-deterministic module; clock reads must not influence output values"
                        ),
                    )),
                    Event::Random { what, line } => out.push(Finding::new(
                        UNSEEDED_RANDOM,
                        &m.rel,
                        *line,
                        format!(
                            "non-seeded randomness source `{what}` in a replay-deterministic module; thread explicit seeds instead"
                        ),
                    )),
                    _ => {}
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// fault-site coverage

pub fn fault_lint(models: &[FileModel], prefixes: &[String], out: &mut Vec<Finding>) {
    for m in models {
        if m.is_test_code || !prefixes.iter().any(|p| m.rel.starts_with(p.as_str())) {
            continue;
        }
        for f in &m.functions {
            if f.in_test || f.mentions_faults {
                continue;
            }
            for ev in &f.events {
                if let Event::Io { what, line, .. } = ev {
                    let fname = match &f.impl_type {
                        Some(t) => format!("{t}::{}", f.name),
                        None => f.name.clone(),
                    };
                    out.push(Finding::new(
                        UNROUTED_IO,
                        &m.rel,
                        *line,
                        format!(
                            "{fname} performs {what} without flowing through a serve::faults site; new I/O must be reachable by fault injection"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// hygiene

pub fn hygiene_lints(models: &[FileModel], out: &mut Vec<Finding>) {
    for m in models {
        let is_crate_root = m.rel == "src/lib.rs"
            || (m.rel.starts_with("crates/") && m.rel.ends_with("/src/lib.rs"));
        if is_crate_root && !m.has_forbid_unsafe {
            out.push(Finding::new(
                MISSING_FORBID,
                &m.rel,
                1,
                "crate root is missing #![forbid(unsafe_code)]",
            ));
        }
        for a in &m.allow_attrs {
            // A reason is a plain `//` comment (not a doc comment) on the
            // attribute's line or the line above it.
            let has_reason = m.comments.iter().any(|c| {
                (c.line == a.line || c.line + 1 == a.line)
                    && !c.text.starts_with('/')
                    && !c.text.starts_with('!')
                    && !c.text.trim().is_empty()
            });
            if !has_reason {
                out.push(Finding::new(
                    ALLOW_NO_REASON,
                    &m.rel,
                    a.line,
                    format!(
                        "#[allow({})] without a reason comment; add `// <why this allow is load-bearing>` on or above the attribute",
                        a.what
                    ),
                ));
            }
        }
    }
}
