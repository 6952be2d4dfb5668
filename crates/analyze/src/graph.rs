//! Workspace-wide call graph: the resolver behind the reachability
//! rules.
//!
//! PR 5's rule families were per-function token scans plus a flat
//! name→body map; every protocol bug since (the view-install straddle,
//! the loopback ordering race, the lock-across-send sites) lived in the
//! *interaction* between functions. This module indexes every `fn` and
//! method in `crates/*/src`, extracts one edge per call site, and lets
//! rules ask reachability questions instead of scanning bodies.
//!
//! ## Over-approximation policy
//!
//! Name-based resolution cannot see types, so every ambiguity resolves
//! toward *more* edges (a rule may flag a path that cannot execute, and
//! the allowlist absorbs it; a rule must never miss a path that can):
//!
//! 1. **Path calls** `Type::f(...)` resolve to every `f` defined in an
//!    `impl Type`/`trait Type` block anywhere in the workspace (`Self::`
//!    uses the caller's own impl type). A qualifier that names no
//!    workspace type at all (`BTreeMap::new`, `Instant::now`) is a
//!    std/vendored call and contributes no edge — falling back to every
//!    same-named function would wire every constructor in the workspace
//!    to every `new()` call site.
//! 2. **Method calls** `recv.f(...)`: when the receiver is `self` and
//!    the caller's impl type defines `f`, the call resolves to that
//!    type's `f`. When the receiver identifier names a type (`nso` →
//!    `Nso`, `out` → `Outbox`, `store` → `DurableStore`;
//!    case-insensitive ≥ 3-char prefix or suffix of the type name), it
//!    resolves to that type's `f`. Otherwise — including every
//!    trait-object and generic dispatch site — the call conservatively
//!    resolves to **every** impl of `f` in the workspace (the "any
//!    impl" rule for dynamic dispatch).
//! 3. **Bare calls** `f(...)` resolve within the caller's crate and its
//!    transitive workspace dependencies (a bare name cannot name an
//!    item from a crate the caller does not depend on); free functions
//!    win over methods of the same name, and an unresolvable name (a
//!    closure parameter, a std function) contributes no edge.
//!
//! Test functions (`#[cfg(test)]`/`#[test]`) are excluded from the
//! graph entirely: the rules guard production protocol paths.
//!
//! Alongside the edges, the builder records which lock guards are live
//! at each call site and each lock acquisition (same `let guard = …
//! .lock()/.read()/.write()` shapes as the lock-hygiene family, plus
//! statement-scoped temporaries), which feeds the lock-order deadlock
//! rule.

use crate::items::{FnItem, ParsedFile};
use crate::lexer::{TokKind, Token};
use crate::rules::crate_of;
use std::collections::{BTreeMap, BTreeSet};

/// Index of a function in [`CallGraph::fns`].
pub type FnId = usize;

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallKind {
    /// `f(...)` — a bare name.
    Bare,
    /// `recv.f(...)` — a method call; the receiver identifier when one
    /// directly precedes the dot (`None` for `(...).f()` chains).
    Method(Option<String>),
    /// `Qual::f(...)` — a path call through the given qualifier.
    Path(String),
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Callee name as written.
    pub name: String,
    /// Shape of the call.
    pub kind: CallKind,
    /// 1-based source line.
    pub line: u32,
    /// Lock names (crate-qualified, see [`LockAcquire`]) held when the
    /// call is made.
    pub locks_held: Vec<String>,
}

/// One lock acquisition (`.lock()`/`.read()`/`.write()`) inside a body.
#[derive(Clone, Debug)]
pub struct LockAcquire {
    /// Crate-qualified lock name: `crate/last-path-segment` of the
    /// receiver expression (`self.shared.conns.lock()` in `crates/net`
    /// → `net/conns`). Name-based identity is an over-approximation in
    /// both directions; crate qualification keeps unrelated same-named
    /// fields in different crates from aliasing.
    pub lock: String,
    /// Locks already held at the acquisition point.
    pub held: Vec<String>,
    /// 1-based source line.
    pub line: u32,
}

/// A function node: its item plus everything the rules ask about its
/// body.
#[derive(Debug)]
pub struct FnNode {
    /// Which parsed file the function lives in.
    pub file: usize,
    /// Index into that file's `fns`.
    pub item: usize,
    /// Crate name (`gcs` for `crates/gcs/src/...`), empty when the path
    /// is not under `crates/`.
    pub krate: String,
    /// Call sites in body order.
    pub calls: Vec<CallSite>,
    /// Lock acquisitions in body order.
    pub locks: Vec<LockAcquire>,
    /// Send-like calls (`send`/`try_send`/`write_all`/…) present
    /// directly in the body.
    pub sends_directly: bool,
}

/// The workspace call graph.
pub struct CallGraph<'a> {
    /// The parsed files the graph was built from.
    pub files: &'a [ParsedFile],
    /// All production (non-test) functions.
    pub fns: Vec<FnNode>,
    /// Resolved edges: `edges[f]` lists (callee, call-site index in
    /// `fns[f].calls`).
    pub edges: Vec<Vec<(FnId, usize)>>,
    /// name → all fns with that name.
    by_name: BTreeMap<String, Vec<FnId>>,
    /// (owner, name) → fns.
    by_owner: BTreeMap<(String, String), Vec<FnId>>,
    /// Owner-type names, lowercased, for the receiver heuristic.
    type_names: BTreeMap<String, Vec<String>>,
}

/// Calls that hand data to a transport or queue; holding a lock across
/// one (directly or transitively) is the deadlock / priority-inversion
/// shape the lock rules exist for.
pub const SEND_LIKE: &[&str] = &[
    "send",
    "try_send",
    "send_fanout",
    "write_all",
    "write_vectored",
    "oneway",
    "oneway_fanout",
    "connect",
    "recv",
];

/// Handler names that the simulator dispatches through trait objects
/// (`dyn NodeApp` and friends). Method calls with these names always
/// resolve to every impl — the receiver-name heuristic must not narrow
/// them, or a variable like `app` would pin dispatch to one app type.
pub const DYN_DISPATCH_NAMES: &[&str] = &[
    "on_event",
    "on_message",
    "on_packet",
    "on_timer",
    "on_start",
    "on_output",
    "on_gcs_message",
];

/// The workspace dependency edges, as declared in `crates/*/Cargo.toml`
/// (package `newtop` is `crates/core`). Bare-name resolution prunes
/// candidate callees to the caller's dependency closure; a unit test
/// cross-checks this table against the real manifests so it cannot rot.
pub const CRATE_DEPS: &[(&str, &[&str])] = &[
    ("analyze", &[]),
    ("flow", &[]),
    ("net", &["flow"]),
    ("orb", &["net"]),
    ("gcs", &["flow", "net", "orb"]),
    ("invocation", &["flow", "net", "orb", "gcs"]),
    ("core", &["net", "orb", "gcs", "invocation"]),
    ("dir", &["flow", "net", "orb", "gcs", "core"]),
    ("rt", &["flow", "net", "orb", "gcs", "invocation", "core"]),
    (
        "workloads",
        &["net", "orb", "gcs", "invocation", "core", "dir"],
    ),
    (
        "check",
        &["net", "gcs", "core", "invocation", "workloads", "dir"],
    ),
    (
        "bench",
        &[
            "net",
            "orb",
            "gcs",
            "invocation",
            "core",
            "workloads",
            "dir",
            "check",
        ],
    ),
];

/// The transitive dependency closure of `krate`, itself included.
#[must_use]
pub fn dep_closure(krate: &str) -> BTreeSet<&'static str> {
    let mut out: BTreeSet<&'static str> = BTreeSet::new();
    let mut stack: Vec<&str> = vec![krate];
    while let Some(c) = stack.pop() {
        let Some((name, deps)) = CRATE_DEPS.iter().find(|(name, _)| *name == c) else {
            continue;
        };
        if out.insert(name) {
            stack.extend(deps.iter().copied());
        }
    }
    out
}

impl<'a> CallGraph<'a> {
    /// Builds the graph over every non-test function in `files`.
    #[must_use]
    pub fn build(files: &'a [ParsedFile]) -> Self {
        let mut g = CallGraph {
            files,
            fns: Vec::new(),
            edges: Vec::new(),
            by_name: BTreeMap::new(),
            by_owner: BTreeMap::new(),
            type_names: BTreeMap::new(),
        };
        for (fi, file) in files.iter().enumerate() {
            let krate = crate_of(&file.path).unwrap_or("").to_owned();
            for (ii, item) in file.fns.iter().enumerate() {
                if item.is_test {
                    continue;
                }
                let id = g.fns.len();
                let body = &file.tokens[item.body.0..item.body.1];
                let (calls, locks, sends_directly) = scan_body(body, &krate);
                g.fns.push(FnNode {
                    file: fi,
                    item: ii,
                    krate: krate.clone(),
                    calls,
                    locks,
                    sends_directly,
                });
                g.by_name.entry(item.name.clone()).or_default().push(id);
                if let Some(owner) = &item.owner {
                    g.by_owner
                        .entry((owner.clone(), item.name.clone()))
                        .or_default()
                        .push(id);
                    g.type_names
                        .entry(owner.to_ascii_lowercase())
                        .or_default()
                        .push(owner.clone());
                }
            }
        }
        g.edges = (0..g.fns.len()).map(|id| g.resolve_calls(id)).collect();
        g
    }

    /// The [`FnItem`] behind a node.
    #[must_use]
    pub fn item(&self, id: FnId) -> &'a FnItem {
        &self.files[self.fns[id].file].fns[self.fns[id].item]
    }

    /// The parsed file behind a node.
    #[must_use]
    pub fn file(&self, id: FnId) -> &'a ParsedFile {
        &self.files[self.fns[id].file]
    }

    /// The body tokens of a node.
    #[must_use]
    pub fn body(&self, id: FnId) -> &'a [Token] {
        let item = self.item(id);
        &self.file(id).tokens[item.body.0..item.body.1]
    }

    /// All nodes matching an (owner, name) entry-point pattern; `None`
    /// matches anything.
    pub fn matching(
        &self,
        owner: Option<&str>,
        name: Option<&str>,
    ) -> impl Iterator<Item = FnId> + '_ {
        let owner = owner.map(str::to_owned);
        let name = name.map(str::to_owned);
        (0..self.fns.len()).filter(move |&id| {
            let item = self.item(id);
            owner
                .as_deref()
                .is_none_or(|o| item.owner.as_deref() == Some(o))
                && name.as_deref().is_none_or(|n| item.name == n)
        })
    }

    /// Breadth-first reachability from `seeds`, optionally restricted to
    /// nodes satisfying `in_scope` (seeds are always included; edges
    /// never traverse an out-of-scope node).
    #[must_use]
    pub fn reachable(&self, seeds: &[FnId], in_scope: impl Fn(FnId) -> bool) -> BTreeSet<FnId> {
        let mut seen: BTreeSet<FnId> = seeds.iter().copied().collect();
        let mut queue: Vec<FnId> = seeds.to_vec();
        while let Some(f) = queue.pop() {
            for &(callee, _) in &self.edges[f] {
                if in_scope(callee) && seen.insert(callee) {
                    queue.push(callee);
                }
            }
        }
        seen
    }

    /// For every function, whether a send-like call is reachable from it
    /// (including its own body). Fixpoint over the cyclic graph.
    #[must_use]
    pub fn reaches_send(&self) -> Vec<bool> {
        let mut reaches: Vec<bool> = self.fns.iter().map(|f| f.sends_directly).collect();
        self.fix_bool(&mut reaches);
        reaches
    }

    /// For every function, the set of lock names acquired by it or by
    /// anything reachable from it — *excluding* paths through send-like
    /// call sites. Locks taken on the far side of a transport send or
    /// queue hand-off are the lock-hygiene family's finding (holding
    /// anything across the hand-off is already flagged); folding them in
    /// here would wire every caller of `send` to the transport's
    /// internal locks and drown the lock-order rule in induced cycles.
    #[must_use]
    pub fn acquires_transitively(&self) -> Vec<BTreeSet<String>> {
        let mut acquires: Vec<BTreeSet<String>> = self
            .fns
            .iter()
            .map(|f| f.locks.iter().map(|l| l.lock.clone()).collect())
            .collect();
        // Worklist fixpoint: propagate callee sets into callers.
        let callers = self.reverse_edges_excluding_sends();
        let mut work: Vec<FnId> = (0..self.fns.len()).collect();
        while let Some(f) = work.pop() {
            let mine: BTreeSet<String> = acquires[f].clone();
            for &caller in &callers[f] {
                let before = acquires[caller].len();
                acquires[caller].extend(mine.iter().cloned());
                if acquires[caller].len() > before && !work.contains(&caller) {
                    work.push(caller);
                }
            }
        }
        acquires
    }

    /// Generic boolean fixpoint: `flags[f] |= any(flags[callee])`.
    fn fix_bool(&self, flags: &mut [bool]) {
        let callers = self.reverse_edges();
        let mut work: Vec<FnId> = (0..flags.len()).filter(|&f| flags[f]).collect();
        while let Some(f) = work.pop() {
            for &caller in &callers[f] {
                if !flags[caller] {
                    flags[caller] = true;
                    work.push(caller);
                }
            }
        }
    }

    /// caller lists per callee.
    fn reverse_edges(&self) -> Vec<Vec<FnId>> {
        let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); self.fns.len()];
        for (f, outs) in self.edges.iter().enumerate() {
            for &(callee, _) in outs {
                rev[callee].push(f);
            }
        }
        for r in &mut rev {
            r.sort_unstable();
            r.dedup();
        }
        rev
    }

    /// caller lists per callee, ignoring edges taken at send-like call
    /// sites (see [`Self::acquires_transitively`]).
    fn reverse_edges_excluding_sends(&self) -> Vec<Vec<FnId>> {
        let mut rev: Vec<Vec<FnId>> = vec![Vec::new(); self.fns.len()];
        for (f, outs) in self.edges.iter().enumerate() {
            for &(callee, ci) in outs {
                if !SEND_LIKE.contains(&self.fns[f].calls[ci].name.as_str()) {
                    rev[callee].push(f);
                }
            }
        }
        for r in &mut rev {
            r.sort_unstable();
            r.dedup();
        }
        rev
    }

    /// Resolves every call site of `id` per the module policy.
    fn resolve_calls(&self, id: FnId) -> Vec<(FnId, usize)> {
        let caller = &self.fns[id];
        let caller_owner = self.item(id).owner.clone();
        let deps = dep_closure(&caller.krate);
        let mut out = Vec::new();
        for (ci, call) in caller.calls.iter().enumerate() {
            let targets: Vec<FnId> = match &call.kind {
                CallKind::Path(qual) => {
                    let owner = if qual == "Self" {
                        caller_owner.clone()
                    } else {
                        Some(qual.clone())
                    };
                    match owner {
                        Some(o) => self
                            .by_owner
                            .get(&(o, call.name.clone()))
                            .cloned()
                            .unwrap_or_default(),
                        None => Vec::new(),
                    }
                }
                CallKind::Method(recv) => self.resolve_method(call, recv.as_deref(), &caller_owner),
                CallKind::Bare => self
                    .any_named(&call.name)
                    .into_iter()
                    .filter(|&t| {
                        self.fns[t].krate.is_empty() || deps.contains(self.fns[t].krate.as_str())
                    })
                    .collect(),
            };
            for t in targets {
                if t != id {
                    out.push((t, ci));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn resolve_method(
        &self,
        call: &CallSite,
        recv: Option<&str>,
        caller_owner: &Option<String>,
    ) -> Vec<FnId> {
        // `self.f()` → the caller's own type, if it defines `f`.
        if recv == Some("self") {
            if let Some(owner) = caller_owner {
                if let Some(t) = self.by_owner.get(&(owner.clone(), call.name.clone())) {
                    return t.clone();
                }
            }
        } else if let Some(r) = recv {
            // Receiver-name heuristic: `nso.f()` → `Nso::f`,
            // `store.f()` → `DurableStore::f`. Only when the receiver
            // is long enough to be meaningful, matches a type name as a
            // prefix or suffix, and the typed candidates actually
            // define the method. Handler-style names are the simulator's
            // trait-object dispatch surface (`node.on_event(..)` reaches
            // every app impl), so they never narrow: a receiver that
            // happens to suffix one impl type must not hide the others
            // from the panic-freedom walk.
            if r.len() >= 3 && !DYN_DISPATCH_NAMES.contains(&call.name.as_str()) {
                let rl = r.to_ascii_lowercase();
                let mut typed: Vec<FnId> = Vec::new();
                for (lower, owners) in &self.type_names {
                    if !lower.starts_with(&rl) && !lower.ends_with(&rl) {
                        continue;
                    }
                    for owner in owners {
                        if let Some(t) = self.by_owner.get(&(owner.clone(), call.name.clone())) {
                            typed.extend(t.iter().copied());
                        }
                    }
                }
                if !typed.is_empty() {
                    typed.sort_unstable();
                    typed.dedup();
                    return typed;
                }
            }
        }
        // Any-impl over-approximation for dynamic dispatch: every
        // function with this name that is a method of *something*, plus
        // free functions of the name (UFCS).
        self.any_named(&call.name)
    }

    fn any_named(&self, name: &str) -> Vec<FnId> {
        self.by_name.get(name).cloned().unwrap_or_default()
    }
}

/// Rust keywords and control-flow words that precede `(` without being
/// calls.
fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "return"
            | "break"
            | "in"
            | "else"
            | "match"
            | "if"
            | "while"
            | "loop"
            | "mut"
            | "move"
            | "as"
            | "let"
            | "ref"
            | "fn"
            | "for"
            | "impl"
            | "dyn"
            | "where"
            | "Some"
            | "None"
            | "Ok"
            | "Err"
    )
}

/// One forward pass over a body: call sites, lock acquisitions, and
/// direct send-like calls, with live-guard tracking.
///
/// Guard model (same over-approximation as the lock-hygiene family):
/// `let g = ….lock()/.read()/.write()…;` makes `g` live until its
/// enclosing block closes or an explicit `drop(g)`; a statement-level
/// acquisition without a binding is live until the statement's `;`.
fn scan_body(toks: &[Token], krate: &str) -> (Vec<CallSite>, Vec<LockAcquire>, bool) {
    let mut calls = Vec::new();
    let mut locks = Vec::new();
    let mut sends = false;

    // Live named guards: (guard name, lock name, block depth at bind).
    let mut guards: Vec<(String, String, i32)> = Vec::new();
    // Statement-scoped lock (unbound temporary), cleared at `;`.
    let mut stmt_lock: Option<String> = None;
    // Pending `let` binding: (guard name, Some(lock) once acquired).
    let mut pending_let: Option<(String, Option<String>)> = None;
    let mut depth = 0i32;

    let held = |guards: &[(String, String, i32)], stmt: &Option<String>| -> Vec<String> {
        let mut h: Vec<String> = guards.iter().map(|g| g.1.clone()).collect();
        if let Some(s) = stmt {
            h.push(s.clone());
        }
        h.sort();
        h.dedup();
        h
    };

    let mut i = 0;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.text == "{" => depth += 1,
            TokKind::Punct if t.text == "}" => {
                depth -= 1;
                guards.retain(|g| g.2 <= depth);
            }
            TokKind::Punct if t.text == ";" => {
                if let Some((name, Some(lock))) = pending_let.take() {
                    guards.push((name, lock, depth));
                }
                pending_let = None;
                stmt_lock = None;
            }
            TokKind::Ident if t.text == "let" => {
                // `let [mut] NAME =` starts a possible guard binding.
                let mut j = i + 1;
                if toks.get(j).is_some_and(|x| x.is_ident("mut")) {
                    j += 1;
                }
                if let (Some(name), Some(eq)) = (toks.get(j), toks.get(j + 1)) {
                    if name.kind == TokKind::Ident && eq.is_punct('=') {
                        pending_let = Some((name.text.clone(), None));
                    }
                }
            }
            TokKind::Ident
                if t.text == "drop"
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && toks.get(i + 3).is_some_and(|n| n.is_punct(')')) =>
            {
                if let Some(g) = toks.get(i + 2) {
                    guards.retain(|(name, _, _)| name != &g.text);
                }
                i += 4;
                continue;
            }
            TokKind::Ident
                if matches!(t.text.as_str(), "lock" | "read" | "write")
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(')')) =>
            {
                // `<path>.lock()` — lock name is the last identifier of
                // the receiver path.
                let lock_field = (0..i.saturating_sub(1))
                    .rev()
                    .map(|k| &toks[k])
                    .take_while(|p| p.kind == TokKind::Ident || p.is_punct('.'))
                    .find(|p| p.kind == TokKind::Ident)
                    .map_or_else(|| "?".to_owned(), |p| p.text.clone());
                let lock = format!("{krate}/{lock_field}");
                locks.push(LockAcquire {
                    lock: lock.clone(),
                    held: held(&guards, &stmt_lock),
                    line: t.line,
                });
                match &mut pending_let {
                    Some((_, slot)) if slot.is_none() => *slot = Some(lock),
                    _ => stmt_lock = Some(lock),
                }
                i += 3;
                continue;
            }
            TokKind::Ident
                if !is_keyword(&t.text) && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                // A call site: classify by what precedes the name.
                let kind = if i > 0 && toks[i - 1].is_punct('.') {
                    let recv = (i >= 2)
                        .then(|| &toks[i - 2])
                        .filter(|r| r.kind == TokKind::Ident && !r.is_ident("await"))
                        // Only a *direct* `ident.method(` receiver counts;
                        // `a.b.method(` names the field, which is still
                        // useful for the type heuristic's failure mode
                        // (falls through to any-impl).
                        .map(|r| r.text.clone());
                    CallKind::Method(recv)
                } else if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                    let qual = (i >= 3)
                        .then(|| &toks[i - 3])
                        .filter(|q| q.kind == TokKind::Ident)
                        .map_or_else(|| "?".to_owned(), |q| q.text.clone());
                    CallKind::Path(qual)
                } else {
                    CallKind::Bare
                };
                if SEND_LIKE.contains(&t.text.as_str()) {
                    sends = true;
                }
                calls.push(CallSite {
                    name: t.text.clone(),
                    kind,
                    line: t.line,
                    locks_held: held(&guards, &stmt_lock),
                });
            }
            _ => {}
        }
        i += 1;
    }
    (calls, locks, sends)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;
    use crate::lexer::lex;

    fn graph(files: &[(&str, &str)]) -> (Vec<ParsedFile>, Vec<(String, Vec<String>)>) {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(path, src)| parse_file(path, lex(src)))
            .collect();
        let g = CallGraph::build(&parsed);
        let edges = (0..g.fns.len())
            .map(|id| {
                let name = g.item(id).name.clone();
                let mut callees: Vec<String> = g.edges[id]
                    .iter()
                    .map(|&(c, _)| g.item(c).name.clone())
                    .collect();
                callees.sort();
                callees.dedup();
                (name, callees)
            })
            .collect();
        (parsed, edges)
    }

    fn callees_of<'e>(edges: &'e [(String, Vec<String>)], name: &str) -> &'e [String] {
        &edges.iter().find(|(n, _)| n == name).unwrap().1
    }

    #[test]
    fn bare_calls_resolve_within_dep_closure_only() {
        // `gcs` does not depend on `workloads`; a bare `helper()` in gcs
        // must not resolve to the workloads function of the same name.
        let (_, edges) = graph(&[
            (
                "crates/gcs/src/a.rs",
                "fn entry() { helper(); }\nfn helper() {}",
            ),
            ("crates/workloads/src/b.rs", "fn helper() {}"),
        ]);
        assert_eq!(callees_of(&edges, "entry"), ["helper"]);
        // ...and the resolved helper is the gcs one (same-crate).
        let parsed: Vec<ParsedFile> = [
            (
                "crates/gcs/src/a.rs",
                "fn entry() { helper(); }\nfn helper() {}",
            ),
            ("crates/workloads/src/b.rs", "fn helper() {}"),
        ]
        .iter()
        .map(|(p, s)| parse_file(p, lex(s)))
        .collect();
        let g = CallGraph::build(&parsed);
        let entry = g.matching(None, Some("entry")).next().unwrap();
        for &(callee, _) in &g.edges[entry] {
            assert_eq!(g.fns[callee].krate, "gcs");
        }
    }

    #[test]
    fn method_calls_use_any_impl_for_dynamic_dispatch() {
        // The simulator's `app.on_event(...)` must reach every impl of
        // `on_event`, whichever crate it lives in — that is the
        // conservative story for trait objects.
        let parsed: Vec<ParsedFile> = [
            (
                "crates/net/src/sim.rs",
                "fn drive(app: &mut dyn NodeApp) { app.on_event(); }",
            ),
            (
                "crates/workloads/src/apps.rs",
                "impl ClientApp { fn on_event(&mut self) {} }",
            ),
            (
                "crates/dir/src/harness.rs",
                "impl DurableGcsNode { fn on_event(&mut self) {} }",
            ),
        ]
        .iter()
        .map(|(p, s)| parse_file(p, lex(s)))
        .collect();
        let g = CallGraph::build(&parsed);
        let drive = g.matching(None, Some("drive")).next().unwrap();
        let mut owners: Vec<&str> = g.edges[drive]
            .iter()
            .filter_map(|&(c, _)| g.item(c).owner.as_deref())
            .collect();
        owners.sort_unstable();
        assert_eq!(owners, ["ClientApp", "DurableGcsNode"]);
    }

    #[test]
    fn self_method_calls_prefer_the_owner_impl() {
        let parsed: Vec<ParsedFile> = [
            (
                "crates/gcs/src/a.rs",
                "impl Member { fn go(&self) { self.step(); } fn step(&self) {} }",
            ),
            (
                "crates/orb/src/b.rs",
                "impl Orb { fn step(&self) { panic!() } }",
            ),
        ]
        .iter()
        .map(|(p, s)| parse_file(p, lex(s)))
        .collect();
        let g = CallGraph::build(&parsed);
        let go = g.matching(None, Some("go")).next().unwrap();
        assert_eq!(g.edges[go].len(), 1);
        let (callee, _) = g.edges[go][0];
        assert_eq!(g.item(callee).owner.as_deref(), Some("Member"));
    }

    #[test]
    fn receiver_name_heuristic_narrows_to_the_type() {
        let parsed: Vec<ParsedFile> = [
            (
                "crates/rt/src/lib.rs",
                "fn loop_once(nso: &mut Nso) { nso.drain_output(); }",
            ),
            (
                "crates/core/src/nso.rs",
                "impl Nso { fn drain_output(&mut self) {} }",
            ),
            (
                "crates/workloads/src/apps.rs",
                "impl OtherThing { fn drain_output(&mut self) {} }",
            ),
        ]
        .iter()
        .map(|(p, s)| parse_file(p, lex(s)))
        .collect();
        let g = CallGraph::build(&parsed);
        let f = g.matching(None, Some("loop_once")).next().unwrap();
        assert_eq!(g.edges[f].len(), 1);
        let (callee, _) = g.edges[f][0];
        assert_eq!(g.item(callee).owner.as_deref(), Some("Nso"));
    }

    #[test]
    fn method_vs_function_name_collisions_across_crates() {
        // A method `decode` and a free fn `decode` in different crates:
        // a path call `Frame::decode` resolves to the impl only.
        let parsed: Vec<ParsedFile> = [
            (
                "crates/orb/src/giop.rs",
                "impl Frame { fn decode(b: &[u8]) -> Frame { Frame } }",
            ),
            ("crates/workloads/src/x.rs", "fn decode(s: &str) {}"),
            (
                "crates/gcs/src/m.rs",
                "fn ingest(b: &[u8]) { Frame::decode(b); }",
            ),
        ]
        .iter()
        .map(|(p, s)| parse_file(p, lex(s)))
        .collect();
        let g = CallGraph::build(&parsed);
        let f = g.matching(None, Some("ingest")).next().unwrap();
        assert_eq!(g.edges[f].len(), 1);
        let (callee, _) = g.edges[f][0];
        assert_eq!(g.item(callee).owner.as_deref(), Some("Frame"));
    }

    #[test]
    fn reachability_is_transitive() {
        let parsed: Vec<ParsedFile> = [(
            "crates/gcs/src/a.rs",
            "fn a() { b(); }\nfn b() { c(); }\nfn c() {}\nfn lonely() {}",
        )]
        .iter()
        .map(|(p, s)| parse_file(p, lex(s)))
        .collect();
        let g = CallGraph::build(&parsed);
        let a = g.matching(None, Some("a")).next().unwrap();
        let seen = g.reachable(&[a], |_| true);
        let names: Vec<&str> = seen.iter().map(|&id| g.item(id).name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn lock_guards_tracked_across_call_sites() {
        let parsed: Vec<ParsedFile> = [(
            "crates/net/src/tcp.rs",
            "fn f(&self) { let g = self.conns.lock(); self.helper(); drop(g); self.late(); }",
        )]
        .iter()
        .map(|(p, s)| parse_file(p, lex(s)))
        .collect();
        let g = CallGraph::build(&parsed);
        let f = g.matching(None, Some("f")).next().unwrap();
        let calls = &g.fns[f].calls;
        let helper = calls.iter().find(|c| c.name == "helper").unwrap();
        assert_eq!(helper.locks_held, ["net/conns"]);
        let late = calls.iter().find(|c| c.name == "late").unwrap();
        assert!(late.locks_held.is_empty(), "{late:?}");
    }

    #[test]
    fn statement_temporaries_hold_until_semicolon() {
        let parsed: Vec<ParsedFile> = [(
            "crates/dir/src/store.rs",
            "fn f(&self) { self.store.lock().append(1); self.after(); }",
        )]
        .iter()
        .map(|(p, s)| parse_file(p, lex(s)))
        .collect();
        let g = CallGraph::build(&parsed);
        let f = g.matching(None, Some("f")).next().unwrap();
        let calls = &g.fns[f].calls;
        let append = calls.iter().find(|c| c.name == "append").unwrap();
        assert_eq!(append.locks_held, ["dir/store"]);
        let after = calls.iter().find(|c| c.name == "after").unwrap();
        assert!(after.locks_held.is_empty());
    }

    #[test]
    fn acquires_and_sends_propagate_transitively() {
        let parsed: Vec<ParsedFile> = [(
            "crates/net/src/a.rs",
            "fn outer() { mid(); }\n\
             fn mid() { inner(); }\n\
             fn inner(&self) { let g = self.q.lock(); self.tx.try_send(1); }",
        )]
        .iter()
        .map(|(p, s)| parse_file(p, lex(s)))
        .collect();
        let g = CallGraph::build(&parsed);
        let outer = g.matching(None, Some("outer")).next().unwrap();
        let sends = g.reaches_send();
        assert!(sends[outer]);
        let acq = g.acquires_transitively();
        assert!(acq[outer].contains("net/q"), "{:?}", acq[outer]);
    }

    #[test]
    fn dep_closure_matches_cargo_manifests() {
        // The hardcoded table must agree with the real Cargo.tomls.
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (krate, deps) in CRATE_DEPS {
            let manifest = root.join("crates").join(krate).join("Cargo.toml");
            let Ok(text) = std::fs::read_to_string(&manifest) else {
                panic!("missing manifest for declared crate {krate}");
            };
            let mut declared: Vec<String> = text
                .lines()
                .filter_map(|l| {
                    let name = l.split('=').next()?.trim();
                    let pkg = name.strip_prefix("newtop")?;
                    if !l.contains("workspace = true") {
                        return None;
                    }
                    Some(if pkg.is_empty() {
                        "core".to_owned()
                    } else {
                        pkg.strip_prefix('-').map(str::to_owned)?
                    })
                })
                .collect();
            declared.sort();
            declared.dedup();
            let mut table: Vec<String> = deps.iter().map(|d| (*d).to_owned()).collect();
            table.sort();
            assert_eq!(table, declared, "CRATE_DEPS out of date for {krate}");
        }
    }
}
