//! `static-lock-order`: a static over-approximation of the runtime
//! lock-order sanitizer.
//!
//! Pass 1 extracts each function's ordered lock acquisitions
//! (`recv.lock()` / `.read()` / `.write()` with no arguments — argumented
//! `.read(buf)` socket calls never match). A lock's static identity is
//! `{module}::{field}` — `self.state.lock()` in
//! `crates/serve/src/queue.rs` is `serve::queue::state` — which matches
//! the `with_label(…)` strings the runtime sanitizer exports, so the
//! two detectors speak the same edge language and a fixture test can
//! assert the static graph is a superset of any observed runtime graph.
//!
//! Pass 2 over-approximates *held-across* relationships: a guard bound
//! with `let` is assumed held from its acquisition to the end of the
//! function unless an explicit `drop(guard)` releases it earlier. A
//! temporary guard — borrowed by a method call or field access
//! (`x.lock().take()`) or a deref (`*x.lock()`) — ends with its
//! statement as Rust drops it: at the `;`, or at the end of the
//! `if let` / `match` / loop whose header holds it (the edition 2021
//! rule), unless a `let` may extend it (`&…`) or it sits in a block's
//! tail expression; those stay held to the end. While held, every
//! later acquisition adds a direct edge, and every call site adds edges
//! to the callee's transitive acquisition set (a fixed point over the
//! conservative call graph). Cycles in the resulting global order graph
//! are findings; false cycles from over-approximation are waived at the
//! reported edge with the usual `nsai-lint:` syntax.

use crate::config::{Config, Severity};
use crate::graph::CallGraph;
use crate::items::FileCtx;
use crate::rules::{applies, Finding};
use std::collections::{BTreeMap, BTreeSet};

/// One edge of the global acquisition-order graph: `from` was held when
/// `to` was acquired, first observed statically at `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Label of the lock held when `to` was acquired.
    pub from: String,
    /// Label of the lock being acquired.
    pub to: String,
    /// File of the first acquisition (or call) that creates this edge.
    pub path: String,
    /// 1-based line of the acquisition (or the call that reaches it).
    pub line: usize,
}

/// One lock acquisition inside a function body.
#[derive(Debug)]
struct Acquisition {
    line_idx: usize,
    /// `{module}::{field}` static identity.
    lock: String,
    /// The `let` binding holding the guard, when there is one.
    guard: Option<String>,
    /// First line the guard is no longer held on — after its `drop`, or
    /// after the statement ending a temporary; `None` holds it to the
    /// end of the function.
    dropped_at: Option<usize>,
}

const ACQUIRE_TOKENS: &[&str] = &[".lock()", ".read()", ".write()"];

/// Extract the ordered acquisitions of one item.
fn acquisitions(ctx: &FileCtx, body: (usize, usize)) -> Vec<Acquisition> {
    let (start, end) = body;
    let mut acqs: Vec<Acquisition> = Vec::new();
    for line_idx in start..=end.min(ctx.lines.len() - 1) {
        let line = &ctx.lines[line_idx];
        if line.in_test {
            continue;
        }
        let code = &line.code;
        for token in ACQUIRE_TOKENS {
            let mut from = 0usize;
            while let Some(pos) = code[from..].find(token) {
                let at = from + pos;
                from = at + token.len();
                let before = &code[..at];
                let field = match trailing_field(before) {
                    Some(f) => Some(f),
                    // Multi-line receiver: `p.inner\n    .lock()` — the
                    // chain ends the previous code line.
                    None if before.trim().is_empty() && line_idx > start => {
                        trailing_field(ctx.lines[line_idx - 1].code.trim_end())
                    }
                    None => None,
                };
                let Some(field) = field else { continue };
                let (guard, dropped_at) = if temporary(code, at, token) {
                    (None, statement_end(ctx, body, line_idx, at).map(|e| e + 1))
                } else {
                    (guard_binding(code, at), None)
                };
                acqs.push(Acquisition {
                    line_idx,
                    lock: format!("{}::{}", ctx.module, field),
                    guard,
                    dropped_at,
                });
            }
        }
    }
    // Resolve `drop(guard)` releases.
    for line_idx in start..=end.min(ctx.lines.len() - 1) {
        let code = &ctx.lines[line_idx].code;
        let mut from = 0usize;
        while let Some(pos) = code[from..].find("drop(") {
            let at = from + pos;
            from = at + 5;
            let inner: String = code[at + 5..]
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if inner.is_empty() {
                continue;
            }
            for acq in acqs.iter_mut() {
                if acq.dropped_at.is_none()
                    && acq.line_idx <= line_idx
                    && acq.guard.as_deref() == Some(inner.as_str())
                {
                    acq.dropped_at = Some(line_idx);
                }
            }
        }
    }
    acqs
}

/// The last identifier of a trailing `a.b.c` / `f()` chain, with any
/// call parentheses stripped: `self.shared.slot` → `slot`,
/// `registry()` → `registry`.
fn trailing_field(text: &str) -> Option<String> {
    let b = text.as_bytes();
    let mut end = text.len();
    // Strip a trailing call: `registry()` → `registry`.
    if end >= 2 && &b[end - 2..end] == b"()" {
        end -= 2;
    }
    let mut start = end;
    while start > 0 && (b[start - 1].is_ascii_alphanumeric() || b[start - 1] == b'_') {
        start -= 1;
    }
    if start == end {
        return None;
    }
    let name = &text[start..end];
    // Skip keywords and `self` alone (`self.lock()` would be a lock
    // *type's* own method, not a field acquisition).
    if matches!(name, "self" | "mut" | "let") {
        return None;
    }
    Some(name.to_string())
}

/// The `let` binding on the acquisition line, when the guard is bound
/// to a plain name: `let mut state = self.state.lock();` → `state`.
/// Pattern bindings (`let Some(x) = …`) and temporaries return `None`.
fn guard_binding(code: &str, acquire_at: usize) -> Option<String> {
    let before = code[..acquire_at].trim_start();
    let rest = before.strip_prefix("let ")?.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest).trim_start();
    let name: String = rest
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() || !rest[name.len()..].trim_start().starts_with('=') {
        return None;
    }
    Some(name)
}

/// Is the guard acquired by `token` at byte `at` a temporary: borrowed
/// by a method call or field access, or dereferenced, rather than moved
/// into a binding or a callee? `.unwrap()` and kin are excluded: on a
/// `std` lock result they yield the guard by value.
fn temporary(code: &str, at: usize, token: &str) -> bool {
    if let Some(rest) = code[at + token.len()..].strip_prefix('.') {
        let next: String = rest
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        return !next.is_empty()
            && !matches!(next.as_str(), "unwrap" | "expect" | "unwrap_or_else" | "ok");
    }
    code[..receiver_start(code, at)].trim_end().ends_with('*')
}

/// Byte offset where the receiver chain ending at `at` starts:
/// `&mut *self.shared.conns` → the `s` of `self`; `registry()` → `r`.
fn receiver_start(code: &str, at: usize) -> usize {
    let b = code.as_bytes();
    let mut i = at;
    while i > 0 {
        match b[i - 1] {
            c if c.is_ascii_alphanumeric() || c == b'_' || c == b'.' || c == b':' => i -= 1,
            b')' => {
                // Skip a call's argument list back to its `(`.
                let mut depth = 0;
                while i > 0 {
                    i -= 1;
                    match b[i] {
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
            }
            _ => break,
        }
    }
    i
}

/// The line on which the statement holding a temporary acquired at
/// `(line_idx, at)` ends: its `;`, or for an `if` / `match` / loop header
/// the line closing the block (and any `else` chain). `None` when the
/// temporary may live longer: a `let` initializer that may extend it
/// (`&` outside a call's arguments), or a block's tail expression.
fn statement_end(ctx: &FileCtx, body: (usize, usize), line_idx: usize, at: usize) -> Option<usize> {
    let lines = &ctx.lines[..=body.1.min(ctx.lines.len() - 1)];
    // The statement's head: code since the last `;`, `{` or `}`.
    let mut prefix = lines[body.0..line_idx]
        .iter()
        .map(|l| l.code.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    prefix.push('\n');
    prefix.push_str(&lines[line_idx].code[..at]);
    let head = prefix[prefix.rfind([';', '{', '}']).map_or(0, |i| i + 1)..].trim_start();
    let header = ["if ", "while ", "match ", "for ", "else "]
        .iter()
        .any(|kw| head.starts_with(kw));
    if head.starts_with("let ") && extends(head) {
        return None;
    }

    let before = &lines[line_idx].code[..at];
    let base = (lines[line_idx].depth_start + before.matches('{').count())
        .saturating_sub(before.matches('}').count());
    let (mut depth, mut parens, mut opened) = (base, 0i32, false);
    for (idx, line) in lines.iter().enumerate().skip(line_idx) {
        let from = if idx == line_idx { at } else { 0 };
        for (pos, c) in line.code[from..].char_indices() {
            match c {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' if depth == base => return None, // tail expression
                '}' => {
                    depth -= 1;
                    let rest = line.code[from + pos + 1..].trim_start();
                    let next = lines[idx + 1..]
                        .iter()
                        .map(|l| l.code.trim_start())
                        .find(|c| !c.is_empty());
                    let chained = rest.starts_with("else")
                        || (rest.is_empty() && next.is_some_and(|n| n.starts_with("else")));
                    if header && opened && depth == base && !chained {
                        return Some(idx);
                    }
                }
                '(' | '[' => parens += 1,
                ')' | ']' => parens -= 1,
                ';' if !header && depth == base && parens <= 0 => return Some(idx),
                _ => {}
            }
        }
    }
    None
}

/// May the `let` statement `head` (up to an acquisition) extend the
/// temporary's lifetime? Only a `&` can, and not from inside a call's
/// argument list, which is never an extending context.
fn extends(head: &str) -> bool {
    let Some(eq) = head.find('=') else {
        return true;
    };
    let init = &head[eq + 1..];
    if !init.contains('&') {
        return false;
    }
    let mut open: Vec<usize> = Vec::new();
    for (i, c) in init.char_indices() {
        match c {
            '(' | '[' | '{' => open.push(i),
            ')' | ']' | '}' => {
                open.pop();
            }
            _ => {}
        }
    }
    let call = open.last().is_some_and(|&i| {
        init[..i]
            .trim_end()
            .ends_with(|c: char| c.is_alphanumeric() || c == '_' || c == '>')
            && init.as_bytes()[i] == b'('
    });
    !call
}

/// Is acquisition `acq` still held at `line_idx` (same line included —
/// within-line ordering is unknown, so held-at-own-line
/// over-approximates)?
fn held_at(acq: &Acquisition, line_idx: usize) -> bool {
    acq.line_idx <= line_idx && acq.dropped_at.is_none_or(|d| d > line_idx)
}

/// Build the global acquisition-order edge set, deterministically
/// ordered by (from, to) with first-in-scan-order provenance.
pub fn lock_edges(graph: &CallGraph, ctxs: &[FileCtx]) -> Vec<LockEdge> {
    let per_item: Vec<Vec<Acquisition>> = graph
        .items
        .iter()
        .map(|item| acquisitions(&ctxs[item.file], item.body))
        .collect();

    // Transitive acquisition sets: locks an item may take directly or
    // through any callee, as a fixed point over the call graph.
    let mut trans: Vec<BTreeSet<String>> = per_item
        .iter()
        .map(|acqs| acqs.iter().map(|a| a.lock.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for item_idx in 0..graph.items.len() {
            for site in &graph.calls[item_idx] {
                for &target in &site.targets {
                    if target == item_idx {
                        continue;
                    }
                    let add: Vec<String> = trans[target]
                        .iter()
                        .filter(|l| !trans[item_idx].contains(*l))
                        .cloned()
                        .collect();
                    if !add.is_empty() {
                        trans[item_idx].extend(add);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut edges: BTreeMap<(String, String), (String, usize)> = BTreeMap::new();
    let mut record = |from: &str, to: &str, path: &str, line_idx: usize| {
        if from != to {
            edges
                .entry((from.to_string(), to.to_string()))
                .or_insert_with(|| (path.to_string(), line_idx + 1));
        }
    };

    for (item_idx, item) in graph.items.iter().enumerate() {
        let ctx = &ctxs[item.file];
        let acqs = &per_item[item_idx];
        // Direct nesting: an earlier still-held guard orders every later
        // acquisition in the same body.
        for (j, later) in acqs.iter().enumerate() {
            for earlier in &acqs[..j] {
                if held_at(earlier, later.line_idx) {
                    record(&earlier.lock, &later.lock, &ctx.path, later.line_idx);
                }
            }
        }
        // Held-across-call: a held guard orders everything the callee
        // may transitively acquire.
        for site in &graph.calls[item_idx] {
            for acq in acqs {
                if !held_at(acq, site.line_idx) {
                    continue;
                }
                for &target in &site.targets {
                    if target == item_idx {
                        continue;
                    }
                    for callee_lock in &trans[target] {
                        record(&acq.lock, callee_lock, &ctx.path, site.line_idx);
                    }
                }
            }
        }
    }

    edges
        .into_iter()
        .map(|((from, to), (path, line))| LockEdge {
            from,
            to,
            path,
            line,
        })
        .collect()
}

/// Report each strongly-connected component of ≥ 2 locks in the
/// acquisition-order graph as one finding, anchored at the provenance
/// of the component's lexicographically-first edge.
pub fn check(graph: &CallGraph, ctxs: &[FileCtx], config: &Config, findings: &mut Vec<Finding>) {
    let rule = config.rule("static-lock-order");
    if rule.severity == Severity::Allow {
        return;
    }
    let edges = lock_edges(graph, ctxs);
    for scc in cycles(&edges) {
        let members: BTreeSet<&str> = scc.iter().map(String::as_str).collect();
        let Some(anchor) = edges
            .iter()
            .find(|e| members.contains(e.from.as_str()) && members.contains(e.to.as_str()))
        else {
            continue;
        };
        if !applies(&rule, &anchor.path) {
            continue;
        }
        let waived = ctxs
            .iter()
            .find(|c| c.path == anchor.path)
            .is_some_and(|c| c.waivers.waived(anchor.line - 1, "static-lock-order"));
        findings.push(Finding {
            path: anchor.path.clone(),
            line: anchor.line,
            rule: "static-lock-order".to_string(),
            severity: rule.severity,
            message: format!(
                "possible lock-order cycle between {{{}}} — the static \
                 acquisition-order graph (same edges the NEUROSYM_SANITIZE=1 \
                 runtime detector reports) is cyclic here; fix the nesting \
                 order or waive with the reason the cycle cannot happen at \
                 runtime",
                scc.join(", ")
            ),
            waived,
        });
    }
}

/// Strongly-connected components with ≥ 2 members, each sorted, the
/// list sorted by first member (deterministic). Plain Kosaraju over the
/// name graph — the graphs here are tiny.
fn cycles(edges: &[LockEdge]) -> Vec<Vec<String>> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    let mut fwd: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    let mut rev: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for e in edges {
        nodes.insert(&e.from);
        nodes.insert(&e.to);
        fwd.entry(&e.from).or_default().push(&e.to);
        rev.entry(&e.to).or_default().push(&e.from);
    }

    // First pass: finish order on the forward graph (iterative DFS).
    let mut finished: Vec<&str> = Vec::new();
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for &root in &nodes {
        if seen.contains(root) {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(root, 0)];
        seen.insert(root);
        while let Some(&(node, next)) = stack.last() {
            let succs = fwd.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if next < succs.len() {
                if let Some(frame) = stack.last_mut() {
                    frame.1 += 1;
                }
                let succ = succs[next];
                if seen.insert(succ) {
                    stack.push((succ, 0));
                }
            } else {
                finished.push(node);
                stack.pop();
            }
        }
    }

    // Second pass: reverse-graph DFS in reverse finish order.
    let mut component: BTreeMap<&str, usize> = BTreeMap::new();
    let mut sccs: Vec<Vec<String>> = Vec::new();
    for &root in finished.iter().rev() {
        if component.contains_key(root) {
            continue;
        }
        let id = sccs.len();
        let mut members: Vec<String> = Vec::new();
        let mut stack = vec![root];
        component.insert(root, id);
        while let Some(node) = stack.pop() {
            members.push(node.to_string());
            for &p in rev.get(node).map(Vec::as_slice).unwrap_or(&[]) {
                if !component.contains_key(p) {
                    component.insert(p, id);
                    stack.push(p);
                }
            }
        }
        members.sort();
        sccs.push(members);
    }
    let mut out: Vec<Vec<String>> = sccs.into_iter().filter(|s| s.len() >= 2).collect();
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::FileCtx;

    fn build(files: &[(&str, &str)]) -> (CallGraph, Vec<FileCtx>) {
        let ctxs: Vec<FileCtx> = files.iter().map(|(p, s)| FileCtx::build(p, s)).collect();
        let graph = CallGraph::build(&ctxs);
        (graph, ctxs)
    }

    #[test]
    fn nested_acquisitions_make_edges_and_drop_releases() {
        let src = "\
impl Q {
    fn nested(&self) {
        let a = self.alpha.lock();
        let b = self.beta.lock();
    }
    fn released(&self) {
        let a = self.alpha.lock();
        drop(a);
        let g = self.gamma.lock();
    }
}
";
        let (graph, ctxs) = build(&[("crates/q/src/m.rs", src)]);
        let edges = lock_edges(&graph, &ctxs);
        let pairs: Vec<(&str, &str)> = edges
            .iter()
            .map(|e| (e.from.as_str(), e.to.as_str()))
            .collect();
        assert_eq!(pairs, vec![("q::m::alpha", "q::m::beta")], "{edges:?}");
    }

    #[test]
    fn held_across_call_orders_callee_locks_transitively() {
        let a = "\
pub fn outer(q: &Q) {
    let g = q.alpha.lock();
    helper(q);
}
";
        let b = "\
pub fn helper(q: &Q) {
    inner(q);
}
pub fn inner(q: &Q) {
    let g = q.beta.lock();
}
";
        let (graph, ctxs) = build(&[("crates/q/src/a.rs", a), ("crates/q/src/b.rs", b)]);
        let edges = lock_edges(&graph, &ctxs);
        assert!(
            edges
                .iter()
                .any(|e| e.from == "q::a::alpha" && e.to == "q::b::beta"),
            "{edges:?}"
        );
    }

    #[test]
    fn cycle_is_a_finding_and_waivable() {
        let src = "\
fn ab(s: &S) {
    let a = s.alpha.lock();
    let b = s.beta.lock();
}
fn ba(s: &S) {
    let b = s.beta.lock();
    let a = s.alpha.lock();
}
";
        let config = Config::parse("").expect("config");
        let (graph, ctxs) = build(&[("crates/s/src/m.rs", src)]);
        let mut findings = Vec::new();
        check(&graph, &ctxs, &config, &mut findings);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("s::m::alpha"));
        assert!(findings[0].message.contains("s::m::beta"));
        assert!(!findings[0].waived);

        let waived_src = src.replace(
            "    let b = s.beta.lock();\n}\nfn ba",
            "    // nsai-lint: allow(static-lock-order): ab and ba are never concurrent (both hold the setup token).\n    let b = s.beta.lock();\n}\nfn ba",
        );
        let (graph, ctxs) = build(&[("crates/s/src/m.rs", &waived_src)]);
        let mut findings = Vec::new();
        check(&graph, &ctxs, &config, &mut findings);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].waived, "{findings:?}");
    }

    #[test]
    fn argumented_read_write_are_not_acquisitions() {
        let src = "\
fn io(stream: &mut TcpStream, buf: &mut [u8]) {
    stream.read(buf).ok();
    stream.write(buf).ok();
    let g = self_state.lock();
}
";
        let (graph, ctxs) = build(&[("crates/g/src/io.rs", src)]);
        let item = graph.items.iter().position(|i| i.name == "io").unwrap();
        let acqs = acquisitions(&ctxs[graph.items[item].file], graph.items[item].body);
        assert_eq!(acqs.len(), 1, "{acqs:?}");
        assert_eq!(acqs[0].lock, "g::io::self_state");
    }
}
