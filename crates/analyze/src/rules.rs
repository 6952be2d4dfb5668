//! The NewTop rule families.
//!
//! Two tiers. The *per-body* families scan each non-test function's
//! token stream independently (determinism, boundedness, direct lock
//! hygiene, durability, cross-shard channel ownership) — exactly the
//! PR 5 shapes. The *reachability* families run over the workspace
//! [`crate::graph::CallGraph`] and ask questions no single body can
//! answer: is a panic reachable from a decode boundary two calls away?
//! do two functions acquire the same pair of locks in opposite orders?
//! does a protocol handler launder wall-clock time through a helper
//! crate? can a runtime worker's event handler block?
//!
//! Every rule stays deliberately over-approximate (name-based
//! resolution, token-shape matching): the committed allowlist absorbs
//! the few justified exceptions, the committed `analyze.baseline.json`
//! must stay empty of protocol findings, and `--self-test` proves each
//! family fires on graph-shaped bad input.

use crate::graph::{CallGraph, FnId, SEND_LIKE};
use crate::items::{FnItem, ParsedFile};
use crate::lexer::{TokKind, Token};
use std::collections::{BTreeMap, BTreeSet};

/// Rule family identifiers (used in findings, IDs, and `analyze.allow`).
pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_PANIC_FREE: &str = "panic-free";
pub const RULE_BOUNDED: &str = "bounded";
pub const RULE_LOCK_HYGIENE: &str = "lock-hygiene";
pub const RULE_DURABILITY: &str = "durability";
pub const RULE_LOCK_ORDER: &str = "lock-order";
pub const RULE_TAINT: &str = "determinism-taint";
pub const RULE_BLOCKING: &str = "blocking-in-worker";

/// One rule violation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based source line of the offending token.
    pub line: u32,
    /// Rule family (`RULE_*`).
    pub rule: &'static str,
    /// Enclosing function name (allowlist key).
    pub func: String,
    /// Violation kind slug — the stable-ID discriminator within a
    /// (rule, file, fn) cluster; never carries line numbers.
    pub kind: &'static str,
    /// Human-readable description.
    pub message: String,
}

/// Crates whose code must be deterministic (rule 1): the protocol
/// decision logic. `newtop-net` is excluded — it owns the transports and
/// the blessed `time::Clock` abstraction itself.
pub const PROTOCOL_CRATES: &[&str] = &["gcs", "invocation", "flow", "core", "check"];

/// The only crate allowed to construct unbounded channels (rule 3): the
/// flow-control crate owns every queue discipline.
pub const BOUNDED_EXEMPT_CRATE: &str = "flow";

/// Crates traversed for transitive panic-freedom (rule 2). PR 5 scoped
/// this to the four crates holding decode entry points; the call graph
/// now follows message paths wherever they go — through the flow queues,
/// the threaded runtime, and `newtop-dir`'s recovery code. The harness
/// crates (`check`, `workloads`, `bench`, the analyzer) and `newtop-net`
/// (transport/clock owner, threaded code with legitimate startup
/// panics) stay out: their name collisions would only manufacture
/// noise, and nothing on a message path calls into them.
pub const PANIC_FREE_CRATES: &[&str] = &["gcs", "orb", "invocation", "core", "flow", "rt", "dir"];

/// Network-input entry points (rule 2). `owner`/`name` of `None` match
/// anything: every `CdrDecoder` method is a decode boundary, and every
/// `from_cdr`/`from_frame`/`decode` constructor on any message type is
/// one too, as is `GcsMember::on_message` (the member ingest path).
pub const ENTRY_POINTS: &[(Option<&str>, Option<&str>)] = &[
    (Some("CdrDecoder"), None),
    (None, Some("from_cdr")),
    (None, Some("from_frame")),
    (None, Some("decode")),
    (Some("GcsMember"), Some("on_message")),
];

/// Worker event handlers (rules 2 and 8): the functions the `newtop-rt`
/// event loop invokes per packet and timer, and whenever its queues run
/// empty. `on_gcs_message` (now private, reached through `on_packet`)
/// and `decode_gcs_frame` (which no host calls any more) stay listed,
/// so no rule loses a seed. Everything reachable from these runs on the
/// runtime thread with the whole node behind it: a panic kills the
/// node, a blocking call stalls every group the node serves.
pub const WORKER_ENTRY_POINTS: &[(Option<&str>, Option<&str>)] = &[
    (Some("Nso"), Some("on_packet")),
    (Some("Nso"), Some("on_timer")),
    (Some("Nso"), Some("on_idle")),
    (Some("Nso"), Some("on_gcs_message")),
    (Some("Nso"), Some("decode_gcs_frame")),
    (Some("GcsMember"), Some("on_timer")),
];

/// Handler names that seed the determinism-taint pass (rule 7): the
/// simulator/NSO callback surface, wherever it is implemented.
pub const HANDLER_NAMES: &[&str] = &[
    "on_event",
    "on_message",
    "on_packet",
    "on_timer",
    "on_start",
    "on_output",
    "on_gcs_message",
];

/// Crates whose handler impls seed the taint pass: the protocol crates
/// plus the deterministic harness layers whose replay guarantees
/// (campaign seeds, scale-model digests) depend on them.
pub const TAINT_SEED_CRATES: &[&str] = &[
    "gcs",
    "invocation",
    "flow",
    "core",
    "check",
    "dir",
    "workloads",
];

/// Files where wall-clock and OS primitives are *blessed*: the clock
/// abstraction itself and the threaded transports. The taint pass never
/// reports inside these (nor inside `rt`/`bench`/`analyze`, which are
/// wall-clock worlds by design).
pub const TAINT_BLESSED_FILES: &[&str] = &[
    "crates/net/src/time.rs",
    "crates/net/src/tcp.rs",
    "crates/net/src/channel.rs",
];

/// Extracts `gcs` from `crates/gcs/src/member.rs`.
#[must_use]
pub fn crate_of(path: &str) -> Option<&str> {
    let rest = path.strip_prefix("crates/")?;
    rest.split('/').next()
}

fn is_protocol_crate(path: &str) -> bool {
    crate_of(path).is_some_and(|c| PROTOCOL_CRATES.contains(&c))
}

/// Runs every rule family over the parsed workspace.
#[must_use]
pub fn run_all(files: &[ParsedFile]) -> Vec<Finding> {
    let graph = CallGraph::build(files);
    let mut out = Vec::new();
    determinism(files, &mut out);
    bounded(files, &mut out);
    lock_hygiene(files, &mut out);
    cross_shard_channels(files, &mut out);
    durability(files, &mut out);
    panic_free(&graph, &mut out);
    lock_order(&graph, &mut out);
    transitive_send_under_lock(&graph, &mut out);
    determinism_taint(&graph, &mut out);
    blocking_in_worker(&graph, &mut out);
    out.sort();
    out.dedup();
    out
}

fn production_fns(files: &[ParsedFile]) -> impl Iterator<Item = (&ParsedFile, &FnItem)> {
    files.iter().flat_map(|f| {
        f.fns
            .iter()
            .filter(|item| !item.is_test)
            .map(move |item| (f, item))
    })
}

fn body<'a>(file: &'a ParsedFile, item: &FnItem) -> &'a [Token] {
    &file.tokens[item.body.0..item.body.1]
}

/// Seeds matching the given (owner, name) patterns, restricted by a
/// scope predicate.
fn seeds_matching(
    graph: &CallGraph<'_>,
    patterns: &[(Option<&str>, Option<&str>)],
    in_scope: impl Fn(FnId) -> bool,
) -> Vec<FnId> {
    let mut seeds: Vec<FnId> = Vec::new();
    for (owner, name) in patterns {
        seeds.extend(graph.matching(*owner, *name).filter(|&id| in_scope(id)));
    }
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

// ---------------------------------------------------------------- rule 1

/// Determinism: protocol crates must not read wall-clock time, sample
/// OS randomness, or make decisions over `HashMap`/`HashSet` iteration
/// order. All time flows through `newtop_net::time`; all keyed protocol
/// state uses ordered maps.
fn determinism(files: &[ParsedFile], out: &mut Vec<Finding>) {
    for (file, item) in production_fns(files) {
        if !is_protocol_crate(&file.path) {
            continue;
        }
        let toks = body(file, item);
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let hit = match t.text.as_str() {
                "Instant" if path_call(toks, i, "now") => Some((
                    "instant-now",
                    "Instant::now() in protocol code; route time through newtop_net::time",
                )),
                "SystemTime" => Some((
                    "system-time",
                    "SystemTime in protocol code; route time through newtop_net::time",
                )),
                "thread_rng" | "from_entropy" => Some((
                    "os-random",
                    "OS randomness in protocol code; seed RNGs explicitly",
                )),
                "HashMap" | "HashSet" => Some((
                    "hash-iter",
                    "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet in protocol state",
                )),
                _ => None,
            };
            if let Some((kind, m)) = hit {
                out.push(finding(RULE_DETERMINISM, file, item, t, kind, m));
            }
        }
    }
}

/// True when `toks[i]` starts the path call `Ident::method(`.
fn path_call(toks: &[Token], i: usize, method: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks
            .get(i + 3)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == method)
}

// ---------------------------------------------------------------- rule 2

/// Transitive panic-freedom on message paths: no `unwrap`/`expect`/
/// panicking macro/raw indexing/modulo-by-variable in any function
/// reachable from a network-input decode entry point or a runtime
/// worker's event handler. Malformed bytes must surface as
/// `NewtopError::Malformed`, never as a panic — and a panic *anywhere*
/// on the path takes the worker thread (and with it the node) down.
fn panic_free(graph: &CallGraph<'_>, out: &mut Vec<Finding>) {
    let in_scope = |id: FnId| {
        let path = &graph.file(id).path;
        crate_of(path).is_some_and(|c| PANIC_FREE_CRATES.contains(&c))
    };
    let mut seeds = seeds_matching(graph, ENTRY_POINTS, in_scope);
    seeds.extend(seeds_matching(graph, WORKER_ENTRY_POINTS, in_scope));
    seeds.sort_unstable();
    seeds.dedup();
    let reachable = graph.reachable(&seeds, in_scope);

    for &id in &reachable {
        let file = graph.file(id);
        let item = graph.item(id);
        let toks = graph.body(id);
        for (i, t) in toks.iter().enumerate() {
            match t.kind {
                TokKind::Ident => {
                    let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));
                    let after_dot = i > 0 && toks[i - 1].is_punct('.');
                    let hit = match t.text.as_str() {
                        "panic" | "unreachable" | "todo" | "unimplemented" if next_bang => Some((
                            "panic-macro",
                            format!(
                                "{}! on a message path; return NewtopError::Malformed",
                                t.text
                            ),
                        )),
                        "unwrap" | "expect" if after_dot => Some((
                            "unwrap",
                            format!(
                                ".{}() on a message path; return NewtopError::Malformed",
                                t.text
                            ),
                        )),
                        _ => None,
                    };
                    if let Some((kind, m)) = hit {
                        out.push(finding(RULE_PANIC_FREE, file, item, t, kind, &m));
                    }
                }
                TokKind::Punct if t.text == "[" && i > 0 => {
                    let prev = &toks[i - 1];
                    let indexing = matches!(prev.kind, TokKind::Ident | TokKind::Lit)
                        && !is_keyword(&prev.text)
                        || prev.is_punct(')')
                        || prev.is_punct(']');
                    if indexing {
                        out.push(finding(
                            RULE_PANIC_FREE,
                            file,
                            item,
                            t,
                            "indexing",
                            "slice/map indexing on a message path can panic; use .get() and return NewtopError::Malformed",
                        ));
                    }
                }
                TokKind::Punct if t.text == "%" && i > 0 => {
                    // `x % var` panics when the divisor is zero; modulo
                    // by a literal is always fine. `%=` never lexes here
                    // (the next token would be `=`).
                    let next_is_var = toks
                        .get(i + 1)
                        .is_some_and(|n| n.kind == TokKind::Ident && !is_keyword(&n.text));
                    let prev_is_value = matches!(toks[i - 1].kind, TokKind::Ident | TokKind::Lit)
                        || toks[i - 1].is_punct(')')
                        || toks[i - 1].is_punct(']');
                    if next_is_var && prev_is_value {
                        out.push(finding(
                            RULE_PANIC_FREE,
                            file,
                            item,
                            t,
                            "modulo",
                            "modulo by a non-constant on a message path panics when the divisor is zero; guard it and return NewtopError::Malformed",
                        ));
                    }
                }
                _ => {}
            }
        }
    }
}

fn is_keyword(s: &str) -> bool {
    // `let [a, b] = ...` and `ref`/`box` patterns start arrays, not
    // index expressions.
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
    )
}

/// Names invoked as `name(...)` or `.name(...)` inside a body (used by
/// the durability rule's crate-local reachability).
fn callee_names(toks: &[Token]) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Ident
            && !is_keyword(&t.text)
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            names.insert(t.text.clone());
        }
    }
    names
}

// ---------------------------------------------------------------- rule 3

/// Boundedness: PR 4 replaced every unbounded channel with
/// `newtop_flow::queue`; this rule locks that in. Only `newtop-flow`
/// itself may construct unbounded channels.
fn bounded(files: &[ParsedFile], out: &mut Vec<Finding>) {
    for (file, item) in production_fns(files) {
        if crate_of(&file.path) == Some(BOUNDED_EXEMPT_CRATE) {
            continue;
        }
        let toks = body(file, item);
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let call = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            if t.text == "unbounded" && call {
                out.push(finding(
                    RULE_BOUNDED,
                    file,
                    item,
                    t,
                    "unbounded",
                    "unbounded channel outside newtop-flow; use newtop_flow::queue::bounded",
                ));
            }
            if t.text == "channel"
                && call
                && i >= 2
                && toks[i - 1].is_punct(':')
                && toks[i - 2].is_punct(':')
                && toks
                    .get(i.wrapping_sub(3))
                    .is_some_and(|p| p.kind == TokKind::Ident && p.text == "mpsc")
            {
                out.push(finding(
                    RULE_BOUNDED,
                    file,
                    item,
                    t,
                    "std-mpsc",
                    "std::sync::mpsc::channel is unbounded; use newtop_flow::queue::bounded",
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- rule 4

/// Lock hygiene: a `Mutex`/`RwLock` guard bound with `let` must be
/// dropped before any transport send or queue hand-off in the same
/// block. Holding one across `send`/`write_all`/`connect`/… is the
/// deadlock and priority-inversion shape PR 4 removed from
/// `tcp.rs`/`channel.rs`.
fn lock_hygiene(files: &[ParsedFile], out: &mut Vec<Finding>) {
    for (file, item) in production_fns(files) {
        let toks = body(file, item);
        let mut i = 0;
        while i < toks.len() {
            if let Some((guard, stmt_end)) = guard_binding(toks, i) {
                scan_guard_scope(file, item, toks, stmt_end, &guard, out);
                i = stmt_end + 1;
            } else {
                i += 1;
            }
        }
    }
}

/// Matches `let [mut] NAME = <expr containing .lock()/.read()/.write()>;`
/// starting at `i`; returns the guard name and the index of the `;`.
fn guard_binding(toks: &[Token], i: usize) -> Option<(String, usize)> {
    if !toks[i].is_ident("let") {
        return None;
    }
    let mut j = i + 1;
    if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
        j += 1;
    }
    let name = toks
        .get(j)
        .filter(|t| t.kind == TokKind::Ident)?
        .text
        .clone();
    if !toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
        return None;
    }
    // Scan the initializer to the statement's `;` at depth 0 and look
    // for a lock acquisition. Chained recovery like
    // `.lock().unwrap_or_else(|e| e.into_inner())` still binds a guard.
    let mut depth = 0i32;
    let mut acquires = false;
    let mut k = j + 2;
    while k < toks.len() {
        let t = &toks[k];
        match t.kind {
            TokKind::Punct if depth == 0 && t.text == ";" => {
                return if acquires { Some((name, k)) } else { None };
            }
            TokKind::Punct if matches!(t.text.as_str(), "(" | "[" | "{") => depth += 1,
            TokKind::Punct if matches!(t.text.as_str(), ")" | "]" | "}") => depth -= 1,
            // Depth 0 only: a lock taken inside a nested block/closure
            // in the initializer dies before the binding completes.
            TokKind::Ident
                if depth == 0
                    && matches!(t.text.as_str(), "lock" | "read" | "write")
                    && k >= 1
                    && toks[k - 1].is_punct('.')
                    && toks.get(k + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                acquires = true;
            }
            _ => {}
        }
        k += 1;
    }
    None
}

/// Scans from the end of a guard binding to the end of its enclosing
/// block (or an explicit `drop(guard)`), flagging send-like calls made
/// while the guard is live.
fn scan_guard_scope(
    file: &ParsedFile,
    item: &FnItem,
    toks: &[Token],
    stmt_end: usize,
    guard: &str,
    out: &mut Vec<Finding>,
) {
    let mut depth = 0i32;
    let mut i = stmt_end + 1;
    while i < toks.len() {
        let t = &toks[i];
        match t.kind {
            TokKind::Punct if t.text == "{" => depth += 1,
            TokKind::Punct if t.text == "}" => {
                depth -= 1;
                if depth < 0 {
                    return; // guard's block closed; guard dropped
                }
            }
            // `drop(guard)` releases it early.
            TokKind::Ident
                if t.text == "drop"
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                    && toks.get(i + 2).is_some_and(|n| n.is_ident(guard))
                    && toks.get(i + 3).is_some_and(|n| n.is_punct(')')) =>
            {
                return;
            }
            TokKind::Ident
                if SEND_LIKE.contains(&t.text.as_str())
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
            {
                out.push(finding(
                    RULE_LOCK_HYGIENE,
                    file,
                    item,
                    t,
                    "held-across-send",
                    &format!(
                        "`{}` called while lock guard `{guard}` is held; drop the guard before the hand-off",
                        t.text
                    ),
                ));
            }
            _ => {}
        }
        i += 1;
    }
}

/// Lock-hygiene extension (PR 6): cross-shard channel ownership. A
/// function that constructs channel endpoints while dealing in shards is
/// wiring a cross-shard hand-off, and only the `newtop-rt` shard-worker
/// pipeline — the functions that actually spawn the
/// `newtop-rt-shard{k}-{node}` threads — may own those channels.
/// Open-coding a shard fan-in/fan-out anywhere else bypasses the
/// runtime's bounded ingress discipline.
///
/// Token shape, over-approximate like the other families: a production
/// function body that mentions a `shard*` identifier AND calls
/// `bounded(...)`/`unbounded(...)` (turbofish included) is flagged
/// unless it lives in crate `rt` and also spawns a worker thread.
fn cross_shard_channels(files: &[ParsedFile], out: &mut Vec<Finding>) {
    for (file, item) in production_fns(files) {
        // The analyzer's own rule plumbing names both shards and the
        // bounded() rule function; it is not protocol wiring.
        if crate_of(&file.path) == Some("analyze") {
            continue;
        }
        let toks = body(file, item);
        let mentions_shard = toks
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text.to_ascii_lowercase().contains("shard"));
        if !mentions_shard {
            continue;
        }
        let spawns_worker = toks.iter().enumerate().any(|(i, t)| {
            t.kind == TokKind::Ident
                && t.text == "spawn"
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        });
        if crate_of(&file.path) == Some("rt") && spawns_worker {
            continue;
        }
        for (i, t) in toks.iter().enumerate() {
            if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "bounded" | "unbounded")
                && channel_ctor_call(toks, i)
            {
                out.push(finding(
                    RULE_LOCK_HYGIENE,
                    file,
                    item,
                    t,
                    "cross-shard-channel",
                    "cross-shard channel constructed outside the newtop-rt shard workers; route shard fan-in/fan-out through the runtime's ingress pipeline",
                ));
            }
        }
    }
}

/// Matches `name(` or the turbofish form `name::<T>(` at `toks[i]`.
fn channel_ctor_call(toks: &[Token], i: usize) -> bool {
    if toks.get(i + 1).is_some_and(|t| t.is_punct('(')) {
        return true;
    }
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 3).is_some_and(|t| t.is_punct('<'))
}

// ---------------------------------------------------------------- rule 5

/// The crate whose event handlers stage durable log writes (rule 5).
pub const DURABLE_CRATE: &str = "dir";

/// Event-handler entry points that acknowledge work by returning
/// (rule 5): the simulator / NSO callback surface, including `on_call`,
/// the durable node's entry for calls scheduled with
/// `Sim::schedule_call`. `on_restart` is deliberately absent — a
/// restart acknowledges nothing; it only discards staged bytes.
pub const DURABLE_HANDLERS: &[&str] = &[
    "on_event",
    "on_packet",
    "on_timer",
    "on_start",
    "on_output",
    "on_call",
];

/// Durability (PR 9): no buffered log write may be acknowledged before
/// its flush point. In the durable-log crate, an event handler whose
/// call closure stages a store append (an `.append(` method call) must
/// also reach a flush (a `.sync(` method call) before it returns —
/// otherwise the handler acknowledges a write that is still sitting in
/// the OS buffer, and a crash loses it. Reachability is the same
/// name-based over-approximation as rule 2. `DurableStore`'s own
/// internals frame onto plain buffers (`append_frame`; `Vec::append`
/// inside `sync`) and only enter a closure through the very `.sync(`
/// call that satisfies the rule, so they never trip it.
fn durability(files: &[ParsedFile], out: &mut Vec<Finding>) {
    // Name → function occurrences within the durable crate.
    let mut by_name: BTreeMap<&str, Vec<(usize, usize)>> = BTreeMap::new();
    let mut handlers: Vec<(usize, usize)> = Vec::new();
    for (fi, file) in files.iter().enumerate() {
        if crate_of(&file.path) != Some(DURABLE_CRATE) {
            continue;
        }
        for (ii, item) in file.fns.iter().enumerate() {
            if item.is_test {
                continue;
            }
            by_name
                .entry(item.name.as_str())
                .or_default()
                .push((fi, ii));
            if DURABLE_HANDLERS.contains(&item.name.as_str()) {
                handlers.push((fi, ii));
            }
        }
    }
    for &handler in &handlers {
        let mut reachable: BTreeSet<(usize, usize)> = BTreeSet::new();
        let mut queue = vec![handler];
        reachable.insert(handler);
        while let Some((fi, ii)) = queue.pop() {
            let file = &files[fi];
            for callee in callee_names(body(file, &file.fns[ii])) {
                if let Some(targets) = by_name.get(callee.as_str()) {
                    for &t in targets {
                        if reachable.insert(t) {
                            queue.push(t);
                        }
                    }
                }
            }
        }
        // One pass over the closure: where the appends are staged, and
        // whether any flush is reachable at all.
        let mut appends: Vec<(usize, usize, usize)> = Vec::new();
        let mut flushed = false;
        for &(fi, ii) in &reachable {
            let file = &files[fi];
            let toks = body(file, &file.fns[ii]);
            for (i, t) in toks.iter().enumerate() {
                let method_call = t.kind == TokKind::Ident
                    && i > 0
                    && toks[i - 1].is_punct('.')
                    && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
                if !method_call {
                    continue;
                }
                match t.text.as_str() {
                    "append" => appends.push((fi, ii, i)),
                    "sync" => flushed = true,
                    _ => {}
                }
            }
        }
        if flushed || appends.is_empty() {
            continue;
        }
        let hname = files[handler.0].fns[handler.1].name.clone();
        for (fi, ii, i) in appends {
            let file = &files[fi];
            let item = &file.fns[ii];
            let tok = &body(file, item)[i];
            out.push(finding(
                RULE_DURABILITY,
                file,
                item,
                tok,
                "unsynced-append",
                &format!(
                    "durable append with no `sync` reachable before `{hname}` returns; a crash after the handler acknowledges loses the staged write"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- rule 6

/// Lock-order deadlock detection: build the workspace lock-acquisition
/// graph — an edge A → B wherever lock B is acquired (directly, or
/// transitively through any call edge) while lock A is held — and flag
/// every cycle. Two threads walking a cycle's edges in opposite orders
/// deadlock; the PR 9 durability audit caught two such sites by hand,
/// this rule catches them structurally.
///
/// Lock identity is the crate-qualified final path segment of the
/// receiver (`self.shared.conns.lock()` in `crates/net` → `net/conns`),
/// an over-approximation both ways: distinct instances with one name
/// alias (may over-flag), one instance reached through differently
/// named bindings splits (may under-flag; the self-test pins the
/// canonical shapes). Same-name re-acquisition (A while A) is skipped —
/// indistinguishable from two instances of one shape.
fn lock_order(graph: &CallGraph<'_>, out: &mut Vec<Finding>) {
    // (held, acquired) → first witness (fn id, line). Call-site edges
    // skip send-like callees: a lock held across a transport hand-off
    // is the lock-hygiene family's finding, not an acquisition order.
    let mut edges: BTreeMap<(String, String), (FnId, u32)> = BTreeMap::new();
    let acquires = graph.acquires_transitively();
    for (id, node) in graph.fns.iter().enumerate() {
        for acq in &node.locks {
            for h in &acq.held {
                if *h != acq.lock {
                    edges
                        .entry((h.clone(), acq.lock.clone()))
                        .or_insert((id, acq.line));
                }
            }
        }
        for &(callee, ci) in &graph.edges[id] {
            let site = &node.calls[ci];
            if site.locks_held.is_empty() || SEND_LIKE.contains(&site.name.as_str()) {
                continue;
            }
            for h in &site.locks_held {
                for a in &acquires[callee] {
                    if a != h {
                        edges
                            .entry((h.clone(), a.clone()))
                            .or_insert((id, site.line));
                    }
                }
            }
        }
    }

    // A deadlock needs a cycle; a cycle lives entirely inside one
    // strongly connected component of the lock graph. Enumerating every
    // elementary cycle of a dense component is combinatorial noise (one
    // bad cluster of five locks has dozens), so the finding unit is the
    // SCC: one report per mutually-reachable lock cluster, anchored at
    // the lexicographically first witness edge inside it. The graph is
    // tiny (one node per distinct lock name), so pairwise reachability
    // is plenty.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (h, a) in edges.keys() {
        adj.entry(h.as_str()).or_default().insert(a.as_str());
        adj.entry(a.as_str()).or_default();
    }
    let reach = |from: &str| -> BTreeSet<&str> {
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        let mut stack = vec![from];
        while let Some(n) = stack.pop() {
            for &next in adj.get(n).into_iter().flatten() {
                if seen.insert(next) {
                    stack.push(next);
                }
            }
        }
        seen
    };
    let nodes: Vec<&str> = adj.keys().copied().collect();
    let reachable: BTreeMap<&str, BTreeSet<&str>> = nodes.iter().map(|&n| (n, reach(n))).collect();
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    for &n in &nodes {
        if assigned.contains(n) || !reachable[n].contains(n) {
            continue; // not on any cycle
        }
        let scc: Vec<&str> = nodes
            .iter()
            .copied()
            .filter(|&m| reachable[n].contains(m) && reachable[m].contains(n))
            .collect();
        assigned.extend(scc.iter().copied());
        // Witness: the first edge inside the component.
        let &(wid, wline) = edges
            .iter()
            .find(|((h, a), _)| scc.contains(&h.as_str()) && scc.contains(&a.as_str()))
            .map(|(_, w)| w)
            .expect("an SCC on a cycle has an internal edge");
        let file = graph.file(wid);
        let item = graph.item(wid);
        out.push(Finding {
            file: file.path.clone(),
            line: wline,
            rule: RULE_LOCK_ORDER,
            func: item.name.clone(),
            kind: "cycle",
            message: format!(
                "lock-order cycle among {{{}}}: two threads taking these locks in opposite orders deadlock; impose one acquisition order",
                scc.join(", ")
            ),
        });
    }
}

/// Lock-hygiene, made transitive: a call made while a guard is held,
/// whose callee *reaches* a transport send or queue hand-off any number
/// of calls down, holds that lock across the hand-off just as surely as
/// a direct send in the same body (which the per-body family already
/// flags; send-like callee names are skipped here to avoid
/// double-reporting).
fn transitive_send_under_lock(graph: &CallGraph<'_>, out: &mut Vec<Finding>) {
    let reaches = graph.reaches_send();
    for (id, node) in graph.fns.iter().enumerate() {
        let mut flagged_sites: BTreeSet<usize> = BTreeSet::new();
        for &(callee, ci) in &graph.edges[id] {
            let site = &node.calls[ci];
            if site.locks_held.is_empty()
                || SEND_LIKE.contains(&site.name.as_str())
                || !reaches[callee]
                || !flagged_sites.insert(ci)
            {
                continue;
            }
            let file = graph.file(id);
            let item = graph.item(id);
            out.push(Finding {
                file: file.path.clone(),
                line: site.line,
                rule: RULE_LOCK_HYGIENE,
                func: item.name.clone(),
                kind: "transitive-send",
                message: format!(
                    "`{}` called while lock guard `{}` is held, and it transitively reaches a transport send/queue hand-off; drop the guard first",
                    site.name,
                    site.locks_held.join("`, `"),
                ),
            });
        }
    }
}

// ---------------------------------------------------------------- rule 7

/// Determinism taint: wall-clock time, OS randomness, or unordered-map
/// state in *any* function reachable from a protocol or deterministic-
/// harness event handler — wherever that function lives. The per-body
/// determinism family polices the protocol crates; this closes the
/// laundering hole where a protocol handler calls a helper in `orb`,
/// `dir`, `workloads`, or the simulator and the helper reads the clock.
fn determinism_taint(graph: &CallGraph<'_>, out: &mut Vec<Finding>) {
    let seed_scope = |id: FnId| {
        let path = &graph.file(id).path;
        crate_of(path).is_some_and(|c| TAINT_SEED_CRATES.contains(&c))
    };
    let patterns: Vec<(Option<&str>, Option<&str>)> =
        HANDLER_NAMES.iter().map(|n| (None, Some(*n))).collect();
    let seeds = seeds_matching(graph, &patterns, seed_scope);
    // Traversal crosses every crate except the wall-clock worlds; the
    // blessed transport/clock files terminate traversal too (whatever
    // they call is their business).
    let traverse = |id: FnId| {
        let path = &graph.file(id).path;
        !matches!(crate_of(path), Some("rt" | "bench" | "analyze"))
            && !TAINT_BLESSED_FILES.contains(&path.as_str())
    };
    let reachable = graph.reachable(&seeds, traverse);
    for &id in &reachable {
        let file = graph.file(id);
        // The per-body family owns the protocol crates; report only the
        // laundering targets outside them.
        if is_protocol_crate(&file.path) {
            continue;
        }
        let item = graph.item(id);
        let toks = graph.body(id);
        for (i, t) in toks.iter().enumerate() {
            if t.kind != TokKind::Ident {
                continue;
            }
            let hit = match t.text.as_str() {
                "Instant" if path_call(toks, i, "now") => Some((
                    "instant-now",
                    "Instant::now() reachable from a protocol handler; take SimTime/Clock as a parameter",
                )),
                "SystemTime" => Some((
                    "system-time",
                    "SystemTime reachable from a protocol handler; take SimTime/Clock as a parameter",
                )),
                "thread_rng" | "from_entropy" => Some((
                    "os-random",
                    "OS randomness reachable from a protocol handler; thread a seeded RNG through",
                )),
                "HashMap" | "HashSet" => Some((
                    "hash-iter",
                    "HashMap/HashSet reachable from a protocol handler can leak iteration order into protocol state; use BTreeMap/BTreeSet",
                )),
                _ => None,
            };
            if let Some((kind, m)) = hit {
                out.push(finding(RULE_TAINT, file, item, t, kind, m));
            }
        }
    }
}

// ---------------------------------------------------------------- rule 8

/// Blocking tokens for rule 8, as (kind, message) classifiers run over
/// each reachable body.
fn blocking_hit(toks: &[Token], i: usize) -> Option<(&'static str, String)> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    let call = toks.get(i + 1).is_some_and(|n| n.is_punct('('));
    let after_dot = i > 0 && toks[i - 1].is_punct('.');
    match t.text.as_str() {
        "sleep" if call => Some((
            "sleep",
            "thread sleep on a worker path stalls every group on the node".to_owned(),
        )),
        "File" | "OpenOptions" if path_call_any(toks, i) => Some((
            "file-io",
            format!("{} file I/O on a worker path blocks the worker", t.text),
        )),
        "fs" if toks.get(i + 1).is_some_and(|n| n.is_punct(':')) => Some((
            "file-io",
            "std::fs file I/O on a worker path blocks the worker".to_owned(),
        )),
        "sync_all" | "sync_data" if call && after_dot => Some((
            "file-io",
            format!("fsync (`{}`) on a worker path blocks the worker", t.text),
        )),
        "wait" | "wait_timeout" | "park" if call && after_dot => Some((
            "wait",
            format!(
                "`{}` on a worker path is an unbounded wait inside the event pipeline",
                t.text
            ),
        )),
        "recv" | "recv_timeout" if call && after_dot => Some((
            "blocking-recv",
            format!(
                "blocking `{}` on a worker path; workers may only block on their own ingress queue",
                t.text
            ),
        )),
        // Thread join takes no arguments; `join("...")` on slices does.
        "join" if call && after_dot && toks.get(i + 2).is_some_and(|n| n.is_punct(')')) => Some((
            "join",
            "thread join on a worker path blocks the worker".to_owned(),
        )),
        _ => None,
    }
}

/// `Ident::` shape (any method).
fn path_call_any(toks: &[Token], i: usize) -> bool {
    toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
        && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
}

/// Blocking-in-worker: no sleep, file I/O, fsync, condvar wait,
/// thread join, or foreign blocking recv anywhere reachable from the
/// worker event handlers. The `newtop-rt` event loop itself blocks on
/// the doorbell of its own command queue and inbox by design — that
/// loop body is not a seed; the handlers it invokes are.
fn blocking_in_worker(graph: &CallGraph<'_>, out: &mut Vec<Finding>) {
    // Traversal stays inside the sans-IO protocol stack (the dependency
    // closure of the worker entry points' crates). The threaded
    // transports and the flow queue internals are the blocking
    // primitives' rightful owners — a worker reaches them only through
    // the loop scaffolding, which is not seeded.
    let in_scope = |id: FnId| {
        let path = &graph.file(id).path;
        matches!(
            crate_of(path),
            Some("core" | "gcs" | "orb" | "invocation" | "flow" | "net" | "rt" | "dir")
        ) && !TAINT_BLESSED_FILES.contains(&path.as_str())
    };
    let seeds = seeds_matching(graph, WORKER_ENTRY_POINTS, in_scope);
    let reachable = graph.reachable(&seeds, in_scope);
    for &id in &reachable {
        let file = graph.file(id);
        let item = graph.item(id);
        let toks = graph.body(id);
        for i in 0..toks.len() {
            if let Some((kind, m)) = blocking_hit(toks, i) {
                out.push(finding(RULE_BLOCKING, file, item, &toks[i], kind, &m));
            }
        }
    }
}

fn finding(
    rule: &'static str,
    file: &ParsedFile,
    item: &FnItem,
    tok: &Token,
    kind: &'static str,
    message: &str,
) -> Finding {
    Finding {
        file: file.path.clone(),
        line: tok.line,
        rule,
        func: item.name.clone(),
        kind,
        message: message.to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;
    use crate::lexer::lex;

    fn check(path: &str, src: &str) -> Vec<Finding> {
        run_all(&[parse_file(path, lex(src))])
    }

    fn check_files(files: &[(&str, &str)]) -> Vec<Finding> {
        let parsed: Vec<ParsedFile> = files.iter().map(|(p, s)| parse_file(p, lex(s))).collect();
        run_all(&parsed)
    }

    #[test]
    fn determinism_flags_wall_clock_in_protocol_crates() {
        let f = check(
            "crates/gcs/src/member.rs",
            "fn tick(&mut self) { let t = Instant::now(); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_DETERMINISM);
    }

    #[test]
    fn determinism_ignores_net_and_tests() {
        assert!(check(
            "crates/net/src/tcp.rs",
            "fn tick() { let t = Instant::now(); }",
        )
        .is_empty());
        assert!(check(
            "crates/gcs/src/member.rs",
            "#[cfg(test)] mod tests { fn tick() { let t = Instant::now(); } }",
        )
        .is_empty());
    }

    #[test]
    fn determinism_flags_hash_maps() {
        let f = check(
            "crates/core/src/nso.rs",
            "fn route(&self) {\n let m: HashMap<u32, u32> =\n HashMap::new(); }",
        );
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == RULE_DETERMINISM));
    }

    #[test]
    fn panic_free_reaches_through_calls() {
        let f = check(
            "crates/orb/src/cdr.rs",
            "impl CdrDecoder { fn read_u8(&mut self) -> u8 { helper(self) } }\n\
             fn helper(d: &mut CdrDecoder) -> u8 { d.buf[0] }\n\
             fn unrelated(v: &[u8]) -> u8 { v[0] }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_PANIC_FREE);
        assert_eq!(f[0].func, "helper");
    }

    #[test]
    fn panic_free_reaches_two_calls_deep_across_files() {
        // The PR 5 scanner only followed one level of names within a
        // file set; the graph follows arbitrary depth across files and
        // crates (orb → gcs helper here).
        let f = check_files(&[
            (
                "crates/orb/src/cdr.rs",
                "impl CdrDecoder { fn read_u8(&mut self) -> u8 { step_one(self) } }",
            ),
            (
                "crates/orb/src/giop.rs",
                "fn step_one(d: &mut CdrDecoder) -> u8 { step_two(d) }",
            ),
            (
                "crates/orb/src/ior.rs",
                "fn step_two(d: &mut CdrDecoder) -> u8 { d.buf.pop().unwrap() }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_PANIC_FREE);
        assert_eq!(f[0].func, "step_two");
        assert_eq!(f[0].kind, "unwrap");
    }

    #[test]
    fn panic_free_covers_shard_worker_handlers() {
        // `Nso::on_packet` is a worker entry point; a panic reachable
        // from it through a gcs helper is flagged even though no decode
        // entry point reaches it.
        let f = check_files(&[
            (
                "crates/core/src/nso.rs",
                "impl Nso { fn on_packet(&mut self, pkt: &Packet) { route_packet(pkt); } }",
            ),
            (
                "crates/gcs/src/engine.rs",
                "fn route_packet(pkt: &Packet) { let r: Option<u8> = None; r.expect(\"route\"); }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_PANIC_FREE);
        assert_eq!(f[0].func, "route_packet");
    }

    #[test]
    fn panic_free_covers_dir_recovery_behind_decode() {
        // `dir`'s log decode path was outside PR 5's crate scope; the
        // graph's `decode` entry points now reach its recovery helpers.
        let f = check_files(&[
            (
                "crates/dir/src/log.rs",
                "impl LogRecord { fn decode(b: &[u8]) -> LogRecord { replay_record(b) } }",
            ),
            (
                "crates/dir/src/recovery.rs",
                "fn replay_record(b: &[u8]) -> LogRecord { let r: Option<LogRecord> = None; r.expect(\"replay\") }",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_PANIC_FREE);
        assert_eq!(f[0].func, "replay_record");
    }

    #[test]
    fn panic_free_flags_unwrap_expect_and_macros() {
        let f = check(
            "crates/gcs/src/message.rs",
            "impl GcsMessage { fn from_cdr(d: &[u8]) -> Self { let x: Option<u8> = None; x.unwrap(); x.expect(\"x\"); panic!(\"no\"); Self }}",
        );
        assert_eq!(f.len(), 3, "{f:?}");
    }

    #[test]
    fn panic_free_flags_modulo_by_variable() {
        let f = check(
            "crates/gcs/src/message.rs",
            "impl GcsMessage { fn from_cdr(d: &[u8], n: usize) -> usize { d.len() % n } }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, "modulo");
        // Modulo by a literal is fine.
        assert!(check(
            "crates/gcs/src/message.rs",
            "impl GcsMessage { fn from_cdr(d: &[u8]) -> usize { d.len() % 4 } }",
        )
        .is_empty());
    }

    #[test]
    fn panic_free_ignores_array_literals_and_types() {
        let f = check(
            "crates/orb/src/cdr.rs",
            "impl CdrDecoder { fn pad(&mut self) -> [u8; 4] { let b = [0u8; 4]; b } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bounded_flags_unbounded_outside_flow() {
        let f = check(
            "crates/net/src/channel.rs",
            "fn mk() { let (tx, rx) = unbounded(); let p = mpsc::channel(); }",
        );
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == RULE_BOUNDED));
        assert!(check(
            "crates/flow/src/queue.rs",
            "fn mk() { let (tx, rx) = unbounded(); }",
        )
        .is_empty());
    }

    #[test]
    fn lock_hygiene_flags_send_under_guard() {
        let f = check(
            "crates/net/src/tcp.rs",
            "fn send(&self) { let mut conns = self.shared.conns.lock(); conns.stream.write_all(&frame); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_LOCK_HYGIENE);
    }

    #[test]
    fn lock_hygiene_respects_block_end_and_drop() {
        assert!(check(
            "crates/net/src/channel.rs",
            "fn a(&self) { { let g = self.registry.read(); let tx = g.tx.clone(); } tx.try_send(m); }",
        )
        .is_empty());
        assert!(check(
            "crates/net/src/channel.rs",
            "fn a(&self) { let g = self.registry.read(); let tx = g.tx.clone(); drop(g); tx.try_send(m); }",
        )
        .is_empty());
    }

    #[test]
    fn transitive_send_under_lock_follows_call_edges() {
        let f = check(
            "crates/net/src/channel.rs",
            "fn outer(&self) { let g = self.registry.read(); self.forward(m); }\n\
             fn forward(&self, m: Frame) { self.tx.try_send(m); }",
        );
        assert!(
            f.iter()
                .any(|x| x.rule == RULE_LOCK_HYGIENE && x.kind == "transitive-send"),
            "{f:?}"
        );
        // Dropping the guard before the call is clean.
        let g = check(
            "crates/net/src/channel.rs",
            "fn outer(&self) { { let g = self.registry.read(); } self.forward(m); }\n\
             fn forward(&self, m: Frame) { self.tx.try_send(m); }",
        );
        assert!(g.is_empty(), "{g:?}");
    }

    #[test]
    fn lock_order_cycles_are_flagged() {
        let f = check_files(&[
            (
                "crates/gcs/src/engine.rs",
                "fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }",
            ),
            (
                "crates/gcs/src/member.rs",
                "fn ba(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }",
            ),
        ]);
        let cycles: Vec<&Finding> = f.iter().filter(|x| x.rule == RULE_LOCK_ORDER).collect();
        assert_eq!(cycles.len(), 1, "{f:?}");
        assert!(cycles[0].message.contains("gcs/alpha"), "{f:?}");
        assert!(cycles[0].message.contains("gcs/beta"), "{f:?}");
    }

    #[test]
    fn lock_order_cycle_through_call_edge() {
        // fn one holds A and calls helper which takes B; fn two holds B
        // and calls other_helper which takes A — a cycle with no single
        // body acquiring both.
        let f = check_files(&[
            (
                "crates/flow/src/lib.rs",
                "fn one(&self) { let a = self.alpha.lock(); self.take_beta(); }\n\
                 fn take_beta(&self) { let b = self.beta.lock(); }",
            ),
            (
                "crates/flow/src/queue.rs",
                "fn two(&self) { let b = self.beta.lock(); self.take_alpha(); }\n\
                 fn take_alpha(&self) { let a = self.alpha.lock(); }",
            ),
        ]);
        assert!(
            f.iter().any(|x| x.rule == RULE_LOCK_ORDER),
            "cycle through call edges must be found: {f:?}"
        );
    }

    #[test]
    fn consistent_lock_order_is_clean() {
        let f = check_files(&[
            (
                "crates/gcs/src/engine.rs",
                "fn ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }",
            ),
            (
                "crates/gcs/src/member.rs",
                "fn ab2(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }",
            ),
        ]);
        assert!(f.iter().all(|x| x.rule != RULE_LOCK_ORDER), "{f:?}");
    }

    #[test]
    fn taint_catches_laundering_through_helper_crates() {
        // A gcs handler calls an orb helper that reads the wall clock:
        // outside the per-body family's crates, inside the graph's
        // reach.
        let f = check_files(&[
            (
                "crates/gcs/src/member.rs",
                "impl GcsMember { fn on_timer(&mut self, tag: u64) { jitter_ms(); } }",
            ),
            (
                "crates/orb/src/poa.rs",
                "fn jitter_ms() -> u64 { Instant::now().elapsed().as_millis() as u64 }",
            ),
        ]);
        assert!(
            f.iter()
                .any(|x| x.rule == RULE_TAINT && x.func == "jitter_ms"),
            "{f:?}"
        );
    }

    #[test]
    fn taint_ignores_blessed_clock_and_unreachable_helpers() {
        // The blessed transport files may use wall-clock freely...
        let f = check_files(&[
            (
                "crates/gcs/src/member.rs",
                "impl GcsMember { fn on_timer(&mut self, tag: u64) { poll(); } }",
            ),
            (
                "crates/net/src/tcp.rs",
                "fn poll() -> u64 { Instant::now().elapsed().as_millis() as u64 }",
            ),
        ]);
        assert!(f.iter().all(|x| x.rule != RULE_TAINT), "{f:?}");
        // ...and helpers nothing reaches are not taint findings.
        let g = check(
            "crates/workloads/src/apps.rs",
            "fn lonely() -> u64 { Instant::now().elapsed().as_millis() as u64 }",
        );
        assert!(g.iter().all(|x| x.rule != RULE_TAINT), "{g:?}");
    }

    #[test]
    fn blocking_in_worker_flags_sleep_and_file_io() {
        let f = check_files(&[
            (
                "crates/core/src/nso.rs",
                "impl Nso { fn on_packet(&mut self, pkt: &Packet) { self.persist(pkt); } \
                 fn persist(&mut self, pkt: &Packet) { std::thread::sleep(d); let f = File::open(p); } }",
            ),
        ]);
        let kinds: BTreeSet<&str> = f
            .iter()
            .filter(|x| x.rule == RULE_BLOCKING)
            .map(|x| x.kind)
            .collect();
        assert!(kinds.contains("sleep"), "{f:?}");
        assert!(kinds.contains("file-io"), "{f:?}");
    }

    #[test]
    fn blocking_in_worker_ignores_rt_loop_scaffolding() {
        // The rt event loop blocks on its own ingress queue by design;
        // it is not a seed, so its recv is clean.
        let f = check(
            "crates/rt/src/lib.rs",
            "fn event_loop(ingress: &Receiver<Ingress>) { while let Ok(ev) = ingress.recv() { } }",
        );
        assert!(f.iter().all(|x| x.rule != RULE_BLOCKING), "{f:?}");
    }

    #[test]
    fn cross_shard_channels_flagged_outside_rt() {
        let f = check(
            "crates/bench/src/bin/loadgen.rs",
            "fn fan_out(n: usize) { let shards = n; let (tx, rx) = bounded::<Packet>(64); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_LOCK_HYGIENE);
        assert!(f[0].message.contains("cross-shard"));
    }

    #[test]
    fn cross_shard_channels_flagged_in_rt_without_worker_spawn() {
        // Even inside newtop-rt, owning a cross-shard channel is reserved
        // for the functions that spawn the shard worker threads.
        let f = check(
            "crates/rt/src/lib.rs",
            "fn stash(&mut self) { let shard = self.next_shard; let (tx, rx) = bounded(8); self.queues.push(tx); }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("cross-shard"));
    }

    #[test]
    fn cross_shard_channels_allowed_for_rt_shard_workers() {
        assert!(check(
            "crates/rt/src/lib.rs",
            "fn spawn_ingress(n: usize) { let shards = n; for k in 0..shards { let (tx, rx) = bounded::<Packet>(64); } std::thread::Builder::new().spawn(move || {}); }",
        )
        .is_empty());
        // Channels with no shard involvement stay governed by the
        // boundedness rule alone.
        assert!(check(
            "crates/net/src/channel.rs",
            "fn mk(&self) { let (tx, rx) = bounded(self.inbox_capacity); }",
        )
        .is_empty());
    }

    #[test]
    fn durability_flags_append_without_reachable_sync() {
        let f = check(
            "crates/dir/src/harness.rs",
            "impl DurableGcsNode { fn on_event(&mut self, ev: NodeEvent) { self.stage_one(ev); } \
             fn stage_one(&mut self, ev: NodeEvent) { self.store.lock().unwrap().append(self.id, &rec); } }",
        );
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, RULE_DURABILITY);
        // The finding anchors at the staging site (the allowlist key),
        // with the acknowledging handler named in the message.
        assert_eq!(f[0].func, "stage_one");
        assert!(f[0].message.contains("on_event"), "{f:?}");
    }

    #[test]
    fn durability_covers_scheduled_calls() {
        // A scripted call stages its creation record on the way in; the
        // call entry must commit like any handler.
        let unsynced = check(
            "crates/dir/src/harness.rs",
            "impl DurableGcsNode { fn on_call(&mut self, rec: LogRecord) { self.store.lock().unwrap().append(self.id, &rec); } }",
        );
        assert_eq!(unsynced.len(), 1, "{unsynced:?}");
        assert!(unsynced[0].message.contains("on_call"), "{unsynced:?}");
        assert!(check(
            "crates/dir/src/harness.rs",
            "impl DurableGcsNode { fn on_call(&mut self, rec: LogRecord) { self.store.lock().unwrap().append(self.id, &rec); self.commit(); } \
             fn commit(&mut self) { self.store.lock().unwrap().sync(self.id); } }",
        )
        .is_empty());
    }

    #[test]
    fn durability_clean_when_sync_reachable_through_commit_point() {
        assert!(check(
            "crates/dir/src/harness.rs",
            "impl DurableGcsNode { fn on_event(&mut self, ev: NodeEvent) { self.stage_one(ev); self.commit(); } \
             fn stage_one(&mut self, ev: NodeEvent) { self.store.lock().unwrap().append(self.id, &rec); } \
             fn commit(&mut self) { self.store.lock().unwrap().sync(self.id); } }",
        )
        .is_empty());
    }

    #[test]
    fn durability_scoped_to_durable_crate_and_handlers() {
        // The same unsynced shape outside the durable crate is not this
        // rule's business.
        let f = check(
            "crates/workloads/src/apps.rs",
            "impl ServerApp { fn on_timer(&mut self) { self.store.lock().unwrap().append(self.id, &rec); } }",
        );
        assert!(f.iter().all(|x| x.rule != RULE_DURABILITY), "{f:?}");
        // A helper nobody's handler reaches is not an acknowledgement
        // point — the store's own internals parse clean.
        assert!(check(
            "crates/dir/src/store.rs",
            "impl DurableStore { fn append(&mut self, node: NodeId, record: &LogRecord) { append_frame(&mut slot.staged, record); } }",
        )
        .is_empty());
    }

    #[test]
    fn lock_hygiene_overapproximates_value_bindings() {
        // `let n = ...lock().len();` binds a usize, not a guard, but the
        // token scan cannot see types: it IS flagged, documenting the
        // known over-approximation (allowlist if it ever appears).
        let f = check(
            "crates/net/src/tcp.rs",
            "fn a(&self) { let n = self.map.lock().len(); self.tx.try_send(n); }",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, RULE_LOCK_HYGIENE);
    }
}
